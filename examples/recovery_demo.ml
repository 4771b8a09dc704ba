(* Failure and recovery in 2PVC — the recovery story of Section V, in
   two acts:

   Act 1: a participant crashes after voting YES, recovers from its
   write-ahead log, and resolves the in-doubt transaction with the
   coordinator.

   Act 2: the *coordinator* crashes between the participants' forced
   prepares and its own decision, driven by a scripted chaos plan.  The
   prepared participants fire the Inquiry termination protocol; the
   restarted coordinator finds no durable decision and presumes abort.
   The act runs once per 2PC logging variant (basic, presumed-abort,
   presumed-commit) to show that the Inquiry-resolved outcome agrees
   across all three disciplines.

   Run with: dune exec examples/recovery_demo.exe *)

module Cluster = Cloudtx_core.Cluster
module Manager = Cloudtx_core.Manager
module Scheme = Cloudtx_core.Scheme
module Consistency = Cloudtx_core.Consistency
module Outcome = Cloudtx_core.Outcome
module Participant = Cloudtx_core.Participant
module Transport = Cloudtx_sim.Transport
module Trace = Cloudtx_sim.Trace
module Latency = Cloudtx_sim.Latency
module Scenario = Cloudtx_workload.Scenario
module Server = Cloudtx_store.Server
module Wal = Cloudtx_store.Wal
module Value = Cloudtx_store.Value
module Tpc = Cloudtx_txn.Tpc
module Plan = Cloudtx_chaos.Plan

let () =
  Format.printf "=== Act 1: participant crash after voting YES ===@.@.";
  let scenario =
    Scenario.retail ~latency:(Latency.Constant 1.) ~n_servers:3 ~n_subjects:1 ()
  in
  let cluster = scenario.Cloudtx_workload.Scenario.cluster in
  let transport = Cluster.transport cluster in
  ignore (Transport.enable_trace transport);
  let txn =
    Scenario.spread_transaction scenario ~id:"t1" ~subject:"clerk-1" ~queries:3 ()
  in

  (* Crash server-2 right after it votes YES (its commit reply leaves at
     8ms with constant 1ms links), so the decision cannot reach it. *)
  Transport.at transport ~delay:8.5 (fun () ->
      Format.printf "[%6.1fms] *** server-2 crashes (fail-stop) ***@."
        (Transport.now transport);
      Participant.crash (Cluster.participant cluster "server-2"));

  let result = ref None in
  Manager.submit cluster
    (Manager.config Scheme.Deferred Consistency.View)
    txn
    ~on_done:(fun o -> result := Some o);
  ignore (Cluster.run cluster);

  Format.printf "simulation quiescent; transaction finished? %b@."
    (!result <> None);

  (* The coordinator force-logged COMMIT and delivered it to the two live
     participants; server-2 is in doubt behind its forced prepare
     record. *)
  let server2 = Participant.server (Cluster.participant cluster "server-2") in
  (match Wal.recover_txn (Server.wal server2) ~txn:"t1" with
  | `Prepared (writes, versions) ->
    Format.printf
      "server-2 WAL: in doubt, %d buffered write(s), policy versions %s@."
      (List.length writes)
      (String.concat ","
         (List.map (fun (d, v) -> Printf.sprintf "%s=v%d" d v) versions))
  | _ -> Format.printf "server-2 WAL: unexpected state@.");

  Format.printf "@.*** server-2 restarts and replays its log ***@.";
  Participant.recover (Cluster.participant cluster "server-2");
  ignore (Cluster.run cluster);

  (match !result with
  | Some o ->
    Format.printf "transaction resolved: %a@." Outcome.pp o;
    Format.printf "server-2 applied the write: s2-k2 = %s@."
      (match Server.get server2 "s2-k2" with
      | Some v -> Value.to_string v
      | None -> "?")
  | None -> Format.printf "still unresolved?!@.");

  (* Show the termination protocol in the trace: the Inquiry and the
     re-sent decision. *)
  Format.printf "@.tail of the message trace:@.";
  let entries = Trace.entries (Transport.trace transport) in
  let n = List.length entries in
  List.iteri
    (fun i e -> if i >= n - 12 then Format.printf "  %a@." Trace.pp_entry e)
    entries

(* ------------------------------------------------------------------ *)
(* Act 2: coordinator crash between prepare and decision               *)
(* ------------------------------------------------------------------ *)

(* The chaos plan, scripted rather than drawn from a seed: fail-stop the
   coordinator at 7.5ms — after the participants force their prepare
   records (7ms with constant 1ms links) but before their YES votes reach
   the TM at 8ms, so no decision is ever logged — then restart it 12ms
   later. *)
let plan =
  {
    Plan.seed = 42L;
    horizon = Plan.fault_horizon;
    ops = [ Plan.Crash_coordinator { txn = 0; at = 7.5; restart_after = 12. } ];
  }

let run_coordinator_crash variant =
  let scenario =
    Scenario.retail ~latency:(Latency.Constant 1.) ~variant ~inquiry_timeout:10.
      ~n_servers:3 ~n_subjects:1 ()
  in
  let cluster = scenario.Cloudtx_workload.Scenario.cluster in
  let transport = Cluster.transport cluster in
  ignore (Transport.enable_trace transport);
  let txn =
    Scenario.spread_transaction scenario ~id:"t1" ~subject:"clerk-1" ~queries:3
      ()
  in
  let result = ref None in
  let handle =
    Manager.submit_handle cluster
      (Manager.config ~decision_retry:5. Scheme.Deferred Consistency.View)
      txn
      ~on_done:(fun o -> result := Some o)
  in
  List.iter
    (fun op ->
      match op with
      | Plan.Crash_coordinator { at; restart_after; _ } ->
        Transport.at transport ~delay:at (fun () ->
            Format.printf "  [%6.1fms] *** coordinator tm-t1 crashes ***@."
              (Transport.now transport);
            Manager.crash handle);
        Transport.at transport ~delay:(at +. restart_after) (fun () ->
            Format.printf "  [%6.1fms] *** coordinator tm-t1 restarts ***@."
              (Transport.now transport);
            Manager.restart handle)
      | _ -> ())
    plan.Plan.ops;
  ignore (Cluster.run cluster);
  let contains_inquiry line =
    let n = String.length line and m = String.length "inquiry" in
    let rec scan i =
      i + m <= n && (String.equal (String.sub line i m) "inquiry" || scan (i + 1))
    in
    scan 0
  in
  let inquiries =
    List.length
      (List.filter
         (fun e -> contains_inquiry (Format.asprintf "%a" Trace.pp_entry e))
         (Trace.entries (Transport.trace transport)))
  in
  (match !result with
  | Some o ->
    Format.printf "  %-15s -> %s (%s), %d inquiry event(s)@."
      (Tpc.variant_name variant)
      (if o.Outcome.committed then "COMMIT" else "ABORT")
      (Outcome.reason_name o.Outcome.reason)
      inquiries
  | None -> Format.printf "  %-15s -> UNRESOLVED?!@." (Tpc.variant_name variant));
  (* Every prepared participant resolved its doubt through Inquiry. *)
  List.iter
    (fun name ->
      let wal = Server.wal (Participant.server (Cluster.participant cluster name)) in
      match Wal.recover_txn wal ~txn:"t1" with
      | `Prepared _ -> Format.printf "    %s: STILL IN DOUBT?!@." name
      | _ -> ())
    scenario.Cloudtx_workload.Scenario.servers

let () =
  Format.printf
    "@.=== Act 2: coordinator crash between prepare and decision ===@.@.";
  Format.printf "chaos plan: %s@.@." (Plan.to_string plan);
  List.iter run_coordinator_crash
    [ Tpc.Basic; Tpc.Presumed_abort; Tpc.Presumed_commit ]
