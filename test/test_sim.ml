(* Unit and property tests for the discrete-event simulator. *)

module Splitmix = Cloudtx_sim.Splitmix
module Event_heap = Cloudtx_sim.Event_heap
module Engine = Cloudtx_sim.Engine
module Latency = Cloudtx_sim.Latency
module Network = Cloudtx_sim.Network
module Transport = Cloudtx_sim.Transport
module Trace = Cloudtx_sim.Trace
module Counter = Cloudtx_metrics.Counter

(* ------------------------------------------------------------------ *)
(* Splitmix                                                            *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Splitmix.create 99L and b = Splitmix.create 99L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Splitmix.next_int64 a)
      (Splitmix.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Splitmix.create 1L and b = Splitmix.create 2L in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Int64.equal (Splitmix.next_int64 a) (Splitmix.next_int64 b) then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_rng_split_independence () =
  (* The split stream must not mirror the parent. *)
  let parent = Splitmix.create 7L in
  let child = Splitmix.split parent in
  let matches = ref 0 in
  for _ = 1 to 50 do
    if Int64.equal (Splitmix.next_int64 parent) (Splitmix.next_int64 child) then
      incr matches
  done;
  Alcotest.(check bool) "independent" true (!matches < 5)

let test_rng_errors () =
  let rng = Splitmix.create 1L in
  Alcotest.check_raises "int bound"
    (Invalid_argument "Splitmix.int: bound must be positive") (fun () ->
      ignore (Splitmix.int rng 0));
  Alcotest.check_raises "uniform"
    (Invalid_argument "Splitmix.uniform: lo must be < hi") (fun () ->
      ignore (Splitmix.uniform rng ~lo:2. ~hi:1.));
  Alcotest.check_raises "exponential"
    (Invalid_argument "Splitmix.exponential: mean must be positive") (fun () ->
      ignore (Splitmix.exponential rng ~mean:0.));
  Alcotest.check_raises "choice"
    (Invalid_argument "Splitmix.choice: empty array") (fun () ->
      ignore (Splitmix.choice rng [||]))

let prop_float_range =
  QCheck.Test.make ~name:"float in [0,1)" ~count:500 QCheck.int64 (fun seed ->
      let rng = Splitmix.create seed in
      let x = Splitmix.float rng in
      x >= 0. && x < 1.)

let prop_int_range =
  QCheck.Test.make ~name:"int in [0,bound)" ~count:500
    QCheck.(pair int64 (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Splitmix.create seed in
      let x = Splitmix.int rng bound in
      x >= 0 && x < bound)

let prop_exponential_nonneg =
  QCheck.Test.make ~name:"exponential nonnegative" ~count:200 QCheck.int64
    (fun seed ->
      let rng = Splitmix.create seed in
      Splitmix.exponential rng ~mean:5. >= 0.)

(* ------------------------------------------------------------------ *)
(* Event_heap                                                          *)
(* ------------------------------------------------------------------ *)

let test_heap_ordering () =
  let h = Event_heap.create () in
  Event_heap.push h ~time:3. ~seq:0 "c";
  Event_heap.push h ~time:1. ~seq:1 "a";
  Event_heap.push h ~time:2. ~seq:2 "b";
  let pop () =
    match Event_heap.pop h with Some (_, _, v) -> v | None -> "EMPTY"
  in
  let p1 = pop () in
  let p2 = pop () in
  let p3 = pop () in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] [ p1; p2; p3 ];
  Alcotest.(check bool) "empty" true (Event_heap.is_empty h)

let test_heap_fifo_ties () =
  let h = Event_heap.create () in
  List.iteri (fun i v -> Event_heap.push h ~time:5. ~seq:i v) [ "x"; "y"; "z" ];
  let pop () =
    match Event_heap.pop h with Some (_, _, v) -> v | None -> "EMPTY"
  in
  let p1 = pop () in
  let p2 = pop () in
  let p3 = pop () in
  Alcotest.(check (list string)) "FIFO at same time" [ "x"; "y"; "z" ]
    [ p1; p2; p3 ]

let test_heap_peek () =
  let h = Event_heap.create () in
  Alcotest.(check (option (float 0.))) "peek empty" None (Event_heap.peek_time h);
  Event_heap.push h ~time:4.2 ~seq:0 ();
  Alcotest.(check (option (float 1e-9))) "peek" (Some 4.2) (Event_heap.peek_time h)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops in (time, seq) order" ~count:200
    QCheck.(list_of_size Gen.(0 -- 100) (float_range 0. 1000.))
    (fun times ->
      let h = Event_heap.create () in
      List.iteri (fun i time -> Event_heap.push h ~time ~seq:i i) times;
      let rec drain acc =
        match Event_heap.pop h with
        | None -> List.rev acc
        | Some (time, seq, _) -> drain ((time, seq) :: acc)
      in
      let out = drain [] in
      let rec sorted = function
        | (t1, s1) :: ((t2, s2) :: _ as rest) ->
          (t1 < t2 || (t1 = t2 && s1 < s2)) && sorted rest
        | [ _ ] | [] -> true
      in
      List.length out = List.length times && sorted out)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_order_and_time () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:10. (fun () -> log := ("b", Engine.now e) :: !log);
  Engine.schedule e ~delay:5. (fun () -> log := ("a", Engine.now e) :: !log);
  Engine.schedule e ~delay:20. (fun () -> log := ("c", Engine.now e) :: !log);
  Alcotest.(check int) "pending" 3 (Engine.pending e);
  let reason = Engine.run e in
  Alcotest.(check bool) "quiescent" true (reason = `Quiescent);
  Alcotest.(check (list (pair string (float 1e-9))))
    "execution order with clock"
    [ ("a", 5.); ("b", 10.); ("c", 20.) ]
    (List.rev !log);
  Alcotest.(check int) "steps" 3 (Engine.steps e)

let test_engine_cascading () =
  let e = Engine.create () in
  let hits = ref 0 in
  let rec ping n =
    if n > 0 then
      Engine.schedule e ~delay:1. (fun () ->
          incr hits;
          ping (n - 1))
  in
  ping 5;
  ignore (Engine.run e);
  Alcotest.(check int) "cascade depth" 5 !hits;
  Alcotest.(check (float 1e-9)) "clock advanced" 5. (Engine.now e)

let test_engine_until () =
  let e = Engine.create () in
  let hits = ref 0 in
  List.iter
    (fun d -> Engine.schedule e ~delay:d (fun () -> incr hits))
    [ 1.; 2.; 50. ];
  let reason = Engine.run ~until:10. e in
  Alcotest.(check bool) "time limited" true (reason = `Time_limit);
  Alcotest.(check int) "only early events ran" 2 !hits;
  ignore (Engine.run e);
  Alcotest.(check int) "rest ran" 3 !hits

let test_engine_max_steps () =
  let e = Engine.create () in
  for _ = 1 to 10 do
    Engine.schedule e ~delay:1. (fun () -> ())
  done;
  let reason = Engine.run ~max_steps:4 e in
  Alcotest.(check bool) "step limited" true (reason = `Step_limit);
  Alcotest.(check int) "pending remain" 6 (Engine.pending e)

let test_engine_negative_delay_clamped () =
  let e = Engine.create () in
  let ran_at = ref (-1.) in
  Engine.schedule e ~delay:5. (fun () ->
      Engine.schedule e ~delay:(-10.) (fun () -> ran_at := Engine.now e));
  ignore (Engine.run e);
  Alcotest.(check (float 1e-9)) "clamped to now" 5. !ran_at

(* ------------------------------------------------------------------ *)
(* Latency / Network                                                   *)
(* ------------------------------------------------------------------ *)

let prop_latency_nonneg =
  QCheck.Test.make ~name:"latency samples nonnegative" ~count:300 QCheck.int64
    (fun seed ->
      let rng = Splitmix.create seed in
      Latency.sample Latency.lan rng >= 0.
      && Latency.sample Latency.wan rng >= 0.
      && Latency.sample (Latency.Constant 3.) rng = 3.)

let test_network_partition () =
  let rng = Splitmix.create 3L in
  let net = Network.create ~latency:(Latency.Constant 1.) ~rng () in
  Alcotest.(check bool) "initially connected" true
    (match Network.fate net ~src:"a" ~dst:"b" with
    | `Deliver_each _ -> true
    | `Lost -> false);
  Network.partition net "a" "b";
  Alcotest.(check bool) "partitioned symmetric" true
    (Network.partitioned net "b" "a");
  Alcotest.(check bool) "lost" true
    (Network.fate net ~src:"b" ~dst:"a" = `Lost);
  Network.heal net "a" "b";
  Alcotest.(check bool) "healed" false (Network.partitioned net "a" "b")

let test_network_self_delivery () =
  let rng = Splitmix.create 3L in
  let net = Network.create ~drop:1.0 ~latency:(Latency.Constant 9.) ~rng () in
  (* Even with 100% drop, self-messages are instant and reliable. *)
  Alcotest.(check bool) "self" true
    (Network.fate net ~src:"a" ~dst:"a" = `Deliver_each [ 0. ])

let test_network_link_override () =
  let rng = Splitmix.create 3L in
  let net = Network.create ~latency:(Latency.Constant 1.) ~rng () in
  Network.set_link net "east" "west" (Latency.Constant 25.);
  Alcotest.(check bool) "overridden link" true
    (Network.fate net ~src:"west" ~dst:"east" = `Deliver_each [ 25. ]);
  Alcotest.(check bool) "other links unchanged" true
    (Network.fate net ~src:"east" ~dst:"east2" = `Deliver_each [ 1. ]);
  Network.clear_link net "east" "west";
  Alcotest.(check bool) "cleared" true
    (Network.fate net ~src:"east" ~dst:"west" = `Deliver_each [ 1. ])

let test_network_drop_all () =
  let rng = Splitmix.create 3L in
  let net = Network.create ~drop:1.0 ~latency:(Latency.Constant 1.) ~rng () in
  Alcotest.(check bool) "dropped" true (Network.fate net ~src:"a" ~dst:"b" = `Lost)

let test_network_duplicate_all () =
  let rng = Splitmix.create 3L in
  let net =
    Network.create ~duplicate:0.5 ~latency:(Latency.Constant 1.) ~rng ()
  in
  let max_copies = ref 0 in
  for _ = 1 to 50 do
    match Network.fate net ~src:"a" ~dst:"b" with
    | `Deliver_each delays ->
      max_copies := max !max_copies (List.length delays);
      List.iter
        (fun d -> Alcotest.(check (float 0.)) "constant latency" 1. d)
        delays
    | `Lost -> Alcotest.fail "no drop configured"
  done;
  Alcotest.(check bool) "some message was duplicated" true (!max_copies >= 2);
  Network.set_duplicate net 0.;
  Alcotest.(check bool) "default restored: single copy" true
    (Network.fate net ~src:"a" ~dst:"b" = `Deliver_each [ 1. ])

let test_network_reorder_jitter () =
  let rng = Splitmix.create 3L in
  let net = Network.create ~latency:(Latency.Constant 1.) ~rng () in
  Network.set_reorder_jitter net (Some (Latency.Uniform { lo = 0.; hi = 10. }));
  let saw_jitter = ref false in
  for _ = 1 to 20 do
    match Network.fate net ~src:"a" ~dst:"b" with
    | `Deliver_each [ d ] ->
      Alcotest.(check bool) "at least base latency" true (d >= 1.);
      if d > 1. then saw_jitter := true
    | _ -> Alcotest.fail "expected one copy"
  done;
  Alcotest.(check bool) "jitter applied" true !saw_jitter;
  Network.set_reorder_jitter net None;
  Alcotest.(check bool) "jitter cleared" true
    (Network.fate net ~src:"a" ~dst:"b" = `Deliver_each [ 1. ])

let test_network_defaults_identical_draws () =
  (* Same seed, with and without the (disabled) fault knobs: identical
     RNG draw order, so existing runs stay bit-identical. *)
  let draws seed knobs =
    let rng = Splitmix.create seed in
    let net =
      if knobs then
        Network.create ~drop:0. ~duplicate:0. ~latency:Latency.lan ~rng ()
      else Network.create ~latency:Latency.lan ~rng ()
    in
    List.init 40 (fun _ ->
        match Network.fate net ~src:"a" ~dst:"b" with
        | `Deliver_each delays -> delays
        | `Lost -> [])
  in
  Alcotest.(check bool) "identical delivery schedule" true
    (draws 7L false = draws 7L true)

(* ------------------------------------------------------------------ *)
(* Transport                                                           *)
(* ------------------------------------------------------------------ *)

let make_transport () =
  let t =
    Transport.create ~seed:11L ~latency:(Latency.Constant 1.)
      ~label_of:(fun s -> s)
      ()
  in
  ignore (Transport.enable_trace t);
  t

let test_transport_delivery () =
  let t = make_transport () in
  let inbox = ref [] in
  Transport.register t "alice" (fun ~src msg -> inbox := (src, msg) :: !inbox);
  Transport.register t "bob" (fun ~src:_ _ -> ());
  Transport.send t ~src:"bob" ~dst:"alice" "hello";
  Transport.send t ~src:"bob" ~dst:"alice" "world";
  ignore (Transport.run t);
  Alcotest.(check (list (pair string string)))
    "delivered in order"
    [ ("bob", "hello"); ("bob", "world") ]
    (List.rev !inbox);
  Alcotest.(check int) "messages counted" 2
    (Counter.get (Transport.counters t) "messages");
  Alcotest.(check int) "labeled" 1
    (Counter.get (Transport.counters t) "msg:hello")

let test_transport_duplicate_registration () =
  let t = make_transport () in
  Transport.register t "x" (fun ~src:_ _ -> ());
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Transport.register: duplicate node x") (fun () ->
      Transport.register t "x" (fun ~src:_ _ -> ()))

let test_transport_crash_swallows () =
  let t = make_transport () in
  let got = ref 0 in
  Transport.register t "a" (fun ~src:_ _ -> incr got);
  Transport.register t "b" (fun ~src:_ _ -> ());
  Transport.crash t "a";
  Transport.send t ~src:"b" ~dst:"a" "m1";
  ignore (Transport.run t);
  Alcotest.(check int) "swallowed" 0 !got;
  Transport.recover t "a";
  Transport.send t ~src:"b" ~dst:"a" "m2";
  ignore (Transport.run t);
  Alcotest.(check int) "delivered after recover" 1 !got

let test_transport_unknown_destination () =
  let t = make_transport () in
  Transport.register t "a" (fun ~src:_ _ -> ());
  Transport.send t ~src:"a" ~dst:"ghost" "m";
  ignore (Transport.run t);
  let drops =
    List.filter
      (fun (e : Trace.entry) ->
        match e.Trace.kind with Trace.Drop _ -> true | _ -> false)
      (Trace.entries (Transport.trace t))
  in
  Alcotest.(check int) "traced as drop" 1 (List.length drops)

let test_trace_marks_and_messages () =
  let t = make_transport () in
  Transport.register t "a" (fun ~src:_ _ -> ());
  Transport.register t "b" (fun ~src:_ _ -> ());
  Transport.mark t ~node:"a" "proof_eval";
  Transport.send t ~src:"a" ~dst:"b" "ping";
  ignore (Transport.run t);
  let trace = Transport.trace t in
  Alcotest.(check int) "one mark" 1
    (List.length (Trace.marks ~node:"a" ~label:"proof_eval" trace));
  Alcotest.(check int) "no mark for b" 0
    (List.length (Trace.marks ~node:"b" trace));
  match Trace.messages trace with
  | [ (_, src, dst, label) ] ->
    Alcotest.(check string) "src" "a" src;
    Alcotest.(check string) "dst" "b" dst;
    Alcotest.(check string) "label" "ping" label
  | other -> Alcotest.failf "expected one message, got %d" (List.length other)

let test_trace_exporters () =
  let t = make_transport () in
  Transport.register t "node-a" (fun ~src:_ _ -> ());
  Transport.register t "node-b" (fun ~src:_ _ -> ());
  Transport.mark t ~node:"node-a" "begin";
  Transport.send t ~src:"node-a" ~dst:"node-b" "ping, with comma";
  ignore (Transport.run t);
  let trace = Transport.trace t in
  let mermaid = Trace.to_mermaid trace in
  Alcotest.(check bool) "mermaid header" true
    (String.length mermaid > 15 && String.sub mermaid 0 15 = "sequenceDiagram");
  Alcotest.(check bool) "mermaid arrow" true
    (let contains s sub =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     contains mermaid "node_a->>node_b");
  let csv = Trace.to_csv trace in
  let lines = String.split_on_char '\n' csv in
  Alcotest.(check string) "csv header" "time,kind,src,dst,label" (List.hd lines);
  (* mark + send + recv = 3 rows + header + trailing newline. *)
  Alcotest.(check int) "csv rows" 5 (List.length lines);
  Alcotest.(check bool) "comma quoted" true
    (List.exists
       (fun l ->
         let n = String.length l in
         n > 0 && String.contains l '"')
       lines)

let test_trace_off_by_default () =
  let t = Transport.create ~seed:11L ~label_of:Fun.id () in
  Transport.register t "a" (fun ~src:_ _ -> ());
  Transport.register t "b" (fun ~src:_ _ -> ());
  Alcotest.(check bool) "nothing consumes marks" false (Transport.marking t);
  Transport.mark t ~node:"a" "begin";
  Transport.send t ~src:"a" ~dst:"b" "ping";
  Transport.send t ~src:"a" ~dst:"ghost" "lost";
  ignore (Transport.run t);
  Alcotest.(check int) "nothing recorded" 0 (Trace.length (Transport.trace t));
  Alcotest.(check int) "messages still counted" 2
    (Cloudtx_metrics.Counter.get (Transport.counters t) "messages");
  let trace = Transport.enable_trace t in
  Alcotest.(check bool) "marks consumed" true (Transport.marking t);
  Transport.send t ~src:"a" ~dst:"b" "ping";
  ignore (Transport.run t);
  Alcotest.(check int) "send and delivery recorded" 2 (Trace.length trace)

let test_deterministic_replay () =
  (* Two transports with the same seed produce identical traces. *)
  let run () =
    let t = Transport.create ~seed:77L ~latency:Latency.lan ~label_of:Fun.id () in
    ignore (Transport.enable_trace t);
    Transport.register t "a" (fun ~src:_ _ -> ());
    Transport.register t "b" (fun ~src:_ _ -> ());
    for i = 1 to 20 do
      Transport.send t ~src:"a" ~dst:"b" (Printf.sprintf "m%d" i)
    done;
    ignore (Transport.run t);
    Trace.to_string (Transport.trace t)
  in
  Alcotest.(check string) "identical traces" (run ()) (run ())

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [
      ( "splitmix",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick
            test_rng_split_independence;
          Alcotest.test_case "errors" `Quick test_rng_errors;
          qc prop_float_range;
          qc prop_int_range;
          qc prop_exponential_nonneg;
        ] );
      ( "event_heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "FIFO ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "peek" `Quick test_heap_peek;
          qc prop_heap_sorted;
        ] );
      ( "engine",
        [
          Alcotest.test_case "order and time" `Quick test_engine_order_and_time;
          Alcotest.test_case "cascading" `Quick test_engine_cascading;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "max steps" `Quick test_engine_max_steps;
          Alcotest.test_case "negative delay clamped" `Quick
            test_engine_negative_delay_clamped;
        ] );
      ( "network",
        [
          qc prop_latency_nonneg;
          Alcotest.test_case "partition" `Quick test_network_partition;
          Alcotest.test_case "self delivery" `Quick test_network_self_delivery;
          Alcotest.test_case "link override" `Quick test_network_link_override;
          Alcotest.test_case "drop all" `Quick test_network_drop_all;
          Alcotest.test_case "duplicate copies" `Quick test_network_duplicate_all;
          Alcotest.test_case "reorder jitter" `Quick test_network_reorder_jitter;
          Alcotest.test_case "defaults keep draws identical" `Quick
            test_network_defaults_identical_draws;
        ] );
      ( "transport",
        [
          Alcotest.test_case "delivery" `Quick test_transport_delivery;
          Alcotest.test_case "duplicate registration" `Quick
            test_transport_duplicate_registration;
          Alcotest.test_case "crash swallows" `Quick test_transport_crash_swallows;
          Alcotest.test_case "unknown destination" `Quick
            test_transport_unknown_destination;
          Alcotest.test_case "trace" `Quick test_trace_marks_and_messages;
          Alcotest.test_case "trace exporters" `Quick test_trace_exporters;
          Alcotest.test_case "deterministic replay" `Quick
            test_deterministic_replay;
          Alcotest.test_case "trace off by default" `Quick
            test_trace_off_by_default;
        ] );
    ]
