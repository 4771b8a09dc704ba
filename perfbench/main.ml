(* cloudtx benchmark: one closed-loop batch workload per run, end-to-end
   metrics from an untraced run, per-layer metrics from a traced run.
   See README.md for the workloads, the metrics and how they relate.

   Usage: main.exe --workload NAME --seed N --seconds S --trace 0|1
   The last line of standard output is the JSON result. *)

module Scenario = Cloudtx_workload.Scenario
module Generator = Cloudtx_workload.Generator
module Churn = Cloudtx_workload.Churn
module Manager = Cloudtx_core.Manager
module Cluster = Cloudtx_core.Cluster
module Scheme = Cloudtx_core.Scheme
module Consistency = Cloudtx_core.Consistency
module Certify = Cloudtx_core.Certify
module Audit = Cloudtx_core.Audit
module Transport = Cloudtx_sim.Transport
module Splitmix = Cloudtx_sim.Splitmix
module Journal = Cloudtx_obs.Journal
module Registry = Cloudtx_obs.Registry
module Policy = Cloudtx_policy.Policy

type workload = {
  name : string;
  servers : int;
  items : int;  (** Per server. *)
  subjects : int;
  clients : int;
  batch : int;  (** Logical transactions per batch. *)
  batches : int;  (** Batches per round, each from its own sub-seed. *)
  det_rounds : int;
      (** Rounds the deterministic figures are taken over; enough samples
          that they vary little from one seed to another. *)
  replay_batch : int;
      (** Logical transactions per replayed journal (one per sub-seed);
          recorded8 replays its own batches instead. *)
  scheme : Scheme.t;
  level : Consistency.level;
  params : Generator.params;
  churn : (float * int) option;
      (** Policy refresh period (simulated ms) and count, scheduled up
          front; the count covers a batch with room to spare. *)
  record : bool;  (** Binary flight recorder on during the run phase. *)
}

(* Why each workload exists is in README.md; in short: fanout64 is
   generator- and transport-bound, hotspot4 lock-, wait-die- and
   proof-bound, recorded8 recorder- and analyzer-bound.  Every batch has
   its own sub-seed, so the deterministic figures average over
   [det_rounds * batches] independent batches, and vary little from one
   seed to another. *)
let workloads =
  let params ~writes ~zipf =
    {
      Generator.queries_per_txn = 4;
      write_ratio = writes;
      zipf_s = zipf;
      spread = `Round_robin;
    }
  in
  [
    {
      name = "fanout64";
      servers = 64;
      items = 100;
      subjects = 16;
      clients = 8;
      batch = 75;
      batches = 8;
      det_rounds = 8;
      replay_batch = 25;
      scheme = Scheme.Deferred;
      level = Consistency.View;
      params = params ~writes:0.3 ~zipf:0.;
      churn = None;
      record = false;
    };
    {
      name = "hotspot4";
      servers = 4;
      items = 24;
      subjects = 16;
      clients = 16;
      batch = 500;
      batches = 4;
      det_rounds = 4;
      replay_batch = 25;
      scheme = Scheme.Continuous;
      level = Consistency.Global;
      params = params ~writes:0.5 ~zipf:0.8;
      churn = Some (50., 100);
      record = false;
    };
    {
      name = "recorded8";
      servers = 8;
      items = 32;
      subjects = 8;
      clients = 8;
      batch = 100;
      batches = 4;
      det_rounds = 16;
      replay_batch = 100;
      scheme = Scheme.Punctual;
      level = Consistency.View;
      params = params ~writes:0.3 ~zipf:0.5;
      churn = Some (20., 50);
      record = true;
    };
  ]

let max_restarts = 64

(* ------------------------------------------------------------------ *)
(* Statistics                                                            *)
(* ------------------------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(** Nearest-rank quantile, [q] in [0, 1]. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median xs = quantile (sorted xs) 0.5
let per n x = float_of_int x /. float_of_int n

(* ------------------------------------------------------------------ *)
(* Set-up and rounds                                                     *)
(* ------------------------------------------------------------------ *)

type env = {
  scenario : Scenario.t;
  journal : Journal.t option;
  registry : Registry.t option;
  setup_s : float;
  scenario_s : float;  (** The [Scenario.retail] part of [setup_s]. *)
}

(* Batch [b] (numbered across rounds) of a run with seed [seed]: its
   network and generator seeds. *)
let sub_seed ~seed ~b = (seed * 1_000_003) + (b * 7919) + 17

let setup ?spans ?(metrics = false) w ~seed ~b ~record =
  let span name f =
    match spans with
    | None -> f ()
    | Some (s, parent) -> fst (Span.timed s ~parent name f)
  in
  let t0 = Span.now_ns () in
  let scenario =
    span "workload.scenario.retail" (fun () ->
        Scenario.retail ~seed:(Int64.of_int (sub_seed ~seed ~b)) ~n_servers:w.servers
          ~items_per_server:w.items ~n_subjects:w.subjects ())
  in
  let scenario_s = Span.seconds_since t0 in
  (match w.churn with
  | Some (period, count) ->
    span "workload.churn.policy_refresh" (fun () ->
        Churn.policy_refresh scenario ~period ~propagation:(0.5, 8.) ~count)
  | None -> ());
  let transport = Cluster.transport scenario.Scenario.cluster in
  let journal =
    if record then
      Some
        (span "sim.transport.enable_journal" (fun () ->
             Transport.enable_journal ~format:Journal.Binary transport))
    else None
  in
  let registry = if metrics then Some (Transport.enable_metrics transport) else None in
  { scenario; journal; registry; setup_s = Span.seconds_since t0; scenario_s }

let generator w (s : Scenario.t) ~seed ~b =
  let rng = Splitmix.create (Int64.of_int (sub_seed ~seed ~b)) in
  fun ~i -> Generator.generate s rng w.params ~id:(Printf.sprintf "t%d" i)

(* A finished batch keeps no reference to its cluster, so that rounds
   kept for later do not hold simulator state alive. *)
type batch = {
  r : Loop.result;
  setup_s : float;
  scenario_s : float;
  scale : float;  (** {!Calib.bracket} factor of the batch's set-up and run. *)
  journal : string option;  (** The recorded journal, when kept. *)
  counts : (int * int * int) option;
      (** Registry lock waits, wait-die kills and forced log writes, when
          the registry was on. *)
}

type round = {
  result : Loop.result;  (** Merged over the round's batches. *)
  batches : batch list;  (** In sub-seed order. *)
}

let registry_counts (reg : Registry.t) (s : Scenario.t) =
  let per_server name labels =
    List.fold_left
      (fun acc server -> acc + Registry.counter reg name (("server", server) :: labels))
      0 s.Scenario.servers
  in
  ( per_server "lock_acquire_total" [ ("outcome", "queued") ],
    per_server "lock_acquire_total" [ ("outcome", "die") ]
    + per_server "lock_killed_total" [],
    Registry.counter_total reg "log_force_total" )

(** Round [k]: batches [k * w.batches] .. [(k + 1) * w.batches - 1], each
    on a freshly built cluster.  [keep] keeps the recorded journals. *)
let run_round ?probe ?spans ?metrics ?(keep = false) w ~seed ~record ~n k =
  let config = Manager.config w.scheme w.level in
  let batches =
    List.init w.batches (fun i ->
        let b = (k * w.batches) + i in
        let (env, r), scale =
          Calib.bracket (fun () ->
              let env = setup ?spans ?metrics w ~seed ~b ~record in
              let r =
                Loop.run ?probe ~config ~clients:w.clients ~n ~max_restarts
                  ~generate:(generator w env.scenario ~seed ~b)
                  env.scenario.Scenario.cluster
              in
              (env, r))
        in
        {
          r;
          setup_s = env.setup_s;
          scenario_s = env.scenario_s;
          scale;
          journal = (if keep then Option.map Journal.to_string env.journal else None);
          counts = Option.map (fun reg -> registry_counts reg env.scenario) env.registry;
        })
  in
  { result = Loop.merge (List.map (fun b -> b.r) batches); batches }

(** Normalized set-up seconds of each batch. *)
let setups r = List.map (fun b -> b.setup_s *. b.scale) r.batches

(** Committed transactions per normalized second, one sample per batch. *)
let tps r =
  List.map
    (fun b -> float_of_int b.r.Loop.committed /. (b.r.Loop.wall_s *. b.scale))
    r.batches

(* ------------------------------------------------------------------ *)
(* Output                                                                *)
(* ------------------------------------------------------------------ *)

type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
}

let check o ok what = if not ok then o.problems <- what :: o.problems

let account ?same_as o r =
  let r = r.result in
  o.attempted <- o.attempted + r.Loop.n;
  o.failed <- o.failed + r.Loop.failed;
  check o (r.Loop.committed + r.Loop.failed = r.Loop.n) "committed + failed <> attempted";
  if r.Loop.stuck <> [] then
    Printf.printf "stuck: %d attempt(s) never decided: %s\n" (List.length r.Loop.stuck)
      (String.concat " " r.Loop.stuck);
  match same_as with
  | Some (d : round) ->
    check o
      (String.equal d.result.Loop.digest r.Loop.digest)
      "a repeated round's outcome digest differs"
  | None -> ()

let json_number x =
  if Float.is_nan x || Float.abs x = infinity then "null" else Printf.sprintf "%.17g" x

let print_result o metrics =
  List.iter (fun p -> Printf.printf "check failed: %s\n" p) (List.rev o.problems);
  let metrics =
    String.concat ", "
      (List.map
         (fun (name, value, unit) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
             (json_number value) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (o.problems = []) o.attempted o.failed metrics

(* ------------------------------------------------------------------ *)
(* Journals and their replay                                             *)
(* ------------------------------------------------------------------ *)

type journal = {
  contents : string;
  committed : int;  (** Logical transactions the journal committed. *)
  logical : int;
  health_in : (Journal.frame * string) list Lazy.t;
}

(** The journals the replay phase reads, one per sub-seed of round 0:
    round 0's own on recorded8, a recorded repeat of round 0's sub-seeds
    with [replay_batch] transactions each on the recorder-off workloads. *)
let journals o w ~seed ~(first : round) =
  let recorded =
    if w.record then first
    else begin
      let r = run_round ~keep:true w ~seed ~record:true ~n:w.replay_batch 0 in
      account o r;
      r
    end
  in
  List.map
    (fun { r; journal; _ } ->
      let contents = Option.get journal in
      {
        contents;
        committed = r.Loop.committed;
        logical = r.Loop.n;
        health_in = lazy (Layers.health_inputs contents);
      })
    recorded.batches

let check_replay o (r : Layers.replay) ~committed =
  check o (r.Layers.audit.Audit.commits = committed) "audit commits <> committed";
  (match r.Layers.certify.Certify.verdict with
  | Certify.Serializable _ -> ()
  | Certify.Anomalous a -> check o false ("certify: " ^ Certify.describe_anomaly a));
  check o (r.Layers.certify.Certify.decode_errors = 0) "certify decode errors";
  check o (r.Layers.blame_uncovered = 0) "blame: uncovered timelines";
  check o (r.Layers.blame_decode_errors = 0) "blame decode errors";
  check o (r.Layers.health_decode_errors = 0) "health decode errors"

(** Replays every journal once; returns each replay with its
    {!Calib.bracket} factor. *)
let replay_all o ~spans ~parent js =
  List.map
    (fun j ->
      let rp, scale =
        Calib.bracket (fun () ->
            Layers.replay ~spans ~parent ~health_in:j.health_in j.contents)
      in
      check_replay o rp ~committed:j.committed;
      (rp, scale))
    js

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

(** Records per normalized second through [ns] of each replay, one
    sample per journal. *)
let replay_rates ns rps =
  List.map
    (fun (r, scale) -> float_of_int r.Layers.records /. (float_of_int (ns r) *. 1e-9 *. scale))
    rps

(* The run phase takes this share of [--seconds]; journal replay the rest. *)
let run_share = 0.5

(* ------------------------------------------------------------------ *)
(* Untraced run: end-to-end metrics                                      *)
(* ------------------------------------------------------------------ *)

(** Rounds [0 .. det_rounds - 1]: the deterministic figures. *)
type det = {
  rounds : round list;
  all : Loop.result;  (** Merged. *)
  top_heap_words : int;  (** [Gc.top_heap_words] after the last. *)
}

let det_rounds o w ~seed =
  let rounds =
    List.init w.det_rounds (fun k ->
        let r = run_round ~keep:(k = 0) w ~seed ~record:w.record ~n:w.batch k in
        account o r;
        r)
  in
  let all = Loop.merge (List.map (fun r -> r.result) rounds) in
  Printf.printf "digest %s seed=%d %s\n%!" w.name seed all.Loop.digest;
  { rounds; all; top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words }

let untraced w ~seed ~seconds =
  let o = { attempted = 0; failed = 0; problems = [] } in
  let t_start = Span.now_ns () in
  let elapsed () = Span.seconds_since t_start in
  let d = det_rounds o w ~seed in
  let r1 = List.hd d.rounds in
  (* Round 0 is the warm-up; every later batch is one commit_tps sample. *)
  let samples = List.tl d.rounds in
  let setup_s = ref (List.concat_map setups d.rounds) in
  let tps_samples = ref (List.concat_map tps samples) in
  let k = ref w.det_rounds in
  while elapsed () < run_share *. seconds || !tps_samples = [] do
    let r = run_round w ~seed ~record:w.record ~n:w.batch !k in
    incr k;
    account o r;
    setup_s := setups r @ !setup_s;
    tps_samples := tps r @ !tps_samples
  done;
  let js = journals o w ~seed ~first:r1 in
  let spans = Span.create ~cap:0 in
  let rates = ref [] in
  while elapsed () < seconds || !rates = [] do
    Gc.compact ();
    rates := replay_rates Layers.total_ns (replay_all o ~spans ~parent:(-1) js) @ !rates
  done;
  let r = d.all in
  let n = r.Loop.n in
  let lat = sorted (Array.to_list r.Loop.latencies) in
  print_result o
    [
      ("setup_s", median !setup_s, "s");
      ("commit_tps", median !tps_samples, "1/s");
      ("alloc_words_per_txn", r.Loop.alloc_words /. float_of_int n, "words");
      ( "peak_heap_mb",
        float_of_int d.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1048576.,
        "MB" );
      ("msgs_per_txn", per n r.Loop.messages, "count");
      ("proofs_per_txn", per n r.Loop.proofs, "count");
      ("sim_latency_ms_p50", quantile lat 0.5, "sim_ms");
      ("sim_latency_ms_p99", quantile lat 0.99, "sim_ms");
      ( "journal_bytes_per_txn",
        per (sum (fun j -> j.logical) js) (sum (fun j -> String.length j.contents) js),
        "bytes" );
      ("replay_records_per_s", median !rates, "1/s");
    ]

(* ------------------------------------------------------------------ *)
(* Traced run: per-layer metrics                                         *)
(* ------------------------------------------------------------------ *)

(* Spans kept in memory per traced run; later calls are timed but not
   kept, so the store stays bounded. *)
let span_cap = 400_000

(* Chaos plans run (each over all 8 cells) in recorded8's traced run. *)
let chaos_plans = 6

(* Repetitions of each isolated driver; the fastest is reported. *)
let reps = 5

let traced w ~seed ~seconds =
  let o = { attempted = 0; failed = 0; problems = [] } in
  let t_start = Span.now_ns () in
  let elapsed () = Span.seconds_since t_start in
  let spans = Span.create ~cap:span_cap in
  let root name = Span.open_ spans ~name ~parent:(-1) ~txn:"" in
  (* The deterministic rounds, untraced: counts and GC behaviour. *)
  let gc0 = Gc.quick_stat () in
  let d = det_rounds o w ~seed in
  let gc1 = Gc.quick_stat () in
  let r1 = List.hd d.rounds in
  (* Alternate untraced rounds with traced repeats of them: the traced
     repeat must reproduce the untraced round's outcomes exactly. *)
  let untraced_tps = ref [] and traced_tps = ref [] in
  let probes = ref [] and builds = ref [] and traced_ns = ref 0. in
  let k = ref w.det_rounds in
  while elapsed () < 0.4 *. seconds || !traced_tps = [] do
    let r = run_round w ~seed ~record:w.record ~n:w.batch !k in
    account o r;
    untraced_tps := tps r @ !untraced_tps;
    let parent = root "round" in
    let probe = Loop.probe spans ~parent in
    let rt = run_round ~probe ~spans:(spans, parent) w ~seed ~record:w.record ~n:w.batch !k in
    incr k;
    Span.finish spans parent;
    account ~same_as:r o rt;
    builds := List.map (fun b -> b.scenario_s *. b.scale) rt.batches @ !builds;
    probes := probe :: !probes;
    traced_ns := !traced_ns +. (rt.result.Loop.wall_s *. 1e9);
    traced_tps := tps rt @ !traced_tps
  done;
  (* One round with the metrics registry on, for the store counters. *)
  let rc = run_round ~metrics:true w ~seed ~record:w.record ~n:w.batch 0 in
  account ~same_as:r1 o rc;
  let waits, kills, forces =
    List.fold_left
      (fun (w, k, f) b ->
        let w', k', f' = Option.get b.counts in
        (w + w', k + k', f + f'))
      (0, 0, 0) rc.batches
  in
  (* Journal replay, each analyzer timed on its own. *)
  let js = journals o w ~seed ~first:r1 in
  let passes = ref [] in
  let replay_root = root "replay" in
  while elapsed () < 0.7 *. seconds || !passes = [] do
    passes := replay_all o ~spans ~parent:replay_root js :: !passes
  done;
  Span.finish spans replay_root;
  let rate ns = median (List.concat_map (replay_rates ns) !passes) in
  let records = sum (fun (r, _) -> r.Layers.records) (List.hd !passes) in
  let logical = sum (fun j -> j.logical) js in
  (* Isolated layer drivers, fed this workload's inputs. *)
  let iso = root "isolated" in
  let repeat name f =
    let best = ref infinity and out = ref None in
    for _ = 1 to reps do
      let (r, dt), scale = Calib.bracket (fun () -> Span.timed spans ~parent:iso name f) in
      out := Some r;
      best := Float.min !best (float_of_int dt *. scale)
    done;
    (Option.get !out, !best)
  in
  (* Batch 0 of round 0: its transactions and message volume. *)
  let batch0 = (List.hd r1.batches).r in
  (* A fresh, unused scenario of batch 0: its subjects, keys and CA. *)
  let scenario = (setup w ~seed ~b:0 ~record:false).scenario in
  let txns =
    let g = generator w scenario ~seed ~b:0 in
    List.init w.batch (fun i -> g ~i)
  in
  let null_events, null_ns =
    repeat "sim.null_transport" (fun () ->
        Layers.null_transport ~messages:batch0.Loop.messages ~pairs:w.clients)
  in
  let policy = Policy.create ~domain:scenario.Scenario.domain Scenario.clerk_rules in
  let (evals, granted), proof_ns =
    repeat "policy.proof.evaluate" (fun () ->
        Layers.proofs ~policy ~ca:scenario.Scenario.ca txns)
  in
  check o (evals = granted) "isolated proofs: a clerk was denied";
  let acquires, lock_ns = repeat "store.lock_manager" (fun () -> Layers.locks txns) in
  let appends, wal_ns = repeat "store.wal.append" (fun () -> Layers.wal txns) in
  let records_of = List.map (fun j -> Layers.frames_with_payloads j.contents) js in
  let encoded_bytes, encode_ns =
    repeat "obs.journal.encode_frame" (fun () -> sum Layers.encode records_of)
  in
  let header = String.length (Journal.binary_header ~version:Journal.format_version) in
  check o
    (encoded_bytes = sum (fun j -> String.length j.contents - header) js)
    "re-encoded journal size differs from the recorded one";
  let steps, redrive_ns =
    repeat "protocol.redrive" (fun () -> sum Layers.redrive records_of)
  in
  check o (steps > 0) "protocol re-drive fed no inputs";
  let chaos =
    if w.record then begin
      let c =
        Layers.chaos ~spans ~parent:iso ~base_seed:(Int64.of_int seed) ~plans:chaos_plans
      in
      check o (c.Layers.violations = 0) "chaos: violations";
      Some c
    end
    else None
  in
  Span.finish spans iso;
  (* Spans are written out once, at the end of the run. *)
  let path =
    (try Sys.mkdir ".bench_out" 0o755 with Sys_error _ -> ());
    Printf.sprintf ".bench_out/spans-%s-seed%d.jsonl" w.name seed
  in
  Span.write spans path;
  Printf.printf "spans %d -> %s\n" (Span.length spans) path;
  let probes = !probes in
  let steps_us =
    sorted
      (List.concat_map
         (fun p -> List.map (fun ns -> float_of_int ns *. 1e-3) p.Loop.step_self_ns)
         probes)
  in
  let gen_ns = sum (fun p -> p.Loop.gen_ns) probes in
  let gens = sum (fun p -> p.Loop.gens) probes in
  let submit_ns = sum (fun p -> p.Loop.submit_ns) probes in
  let submits = sum (fun p -> p.Loop.submits) probes in
  let pending_peak = List.fold_left (fun acc p -> max acc p.Loop.pending_peak) 0 probes in
  (* Chaos figures are 0 on the workloads that do not run it. *)
  let c f = match chaos with Some c -> f c | None -> 0. in
  let chaos_ms q = c (fun c -> quantile (sorted (Array.to_list c.Layers.run_ms)) q) in
  let r = d.all in
  let n = r.Loop.n in
  print_result o
    [
      ("workload.generate_us_per_txn", float_of_int gen_ns /. float_of_int gens *. 1e-3, "us");
      ("workload.generate_share", float_of_int gen_ns /. !traced_ns, "ratio");
      ("workload.scenario_build_ms", median !builds *. 1e3, "ms");
      ("core.submit_us", float_of_int submit_ns /. float_of_int submits *. 1e-3, "us");
      ("core.restarts_per_txn", per n r.Loop.restarts, "count");
      ("sim.events_per_txn", per n r.Loop.events, "count");
      ("sim.step_us_p50", quantile steps_us 0.5, "us");
      ("sim.step_us_p99", quantile steps_us 0.99, "us");
      ("sim.null_event_ns", null_ns /. float_of_int null_events, "ns");
      ("sim.pending_peak", float_of_int pending_peak, "count");
      ("sim.trace_entries_per_txn", per n r.Loop.trace_entries, "count");
      ("protocol.commit_rounds_per_txn", per n r.Loop.commit_rounds, "count");
      ("protocol.replay_us_per_txn", redrive_ns /. float_of_int logical *. 1e-3, "us");
      ("policy.proof_eval_us", proof_ns /. float_of_int evals *. 1e-3, "us");
      ("store.lock_acquire_ns", lock_ns /. float_of_int acquires, "ns");
      ("store.wal_append_ns", wal_ns /. float_of_int appends, "ns");
      ("store.lock_waits_per_txn", per rc.result.Loop.n waits, "count");
      ("store.lock_kills_per_txn", per rc.result.Loop.n kills, "count");
      ("store.wal_forces_per_txn", per rc.result.Loop.n forces, "count");
      ("obs.journal_encode_ns_per_record", encode_ns /. float_of_int records, "ns");
      ("obs.journal_records_per_txn", per logical records, "count");
      ("core.journal_io.decode_records_per_s", rate (fun r -> r.Layers.decode_ns), "1/s");
      ("core.audit.records_per_s", rate (fun r -> r.Layers.audit_ns), "1/s");
      ("core.certify.records_per_s", rate (fun r -> r.Layers.certify_ns), "1/s");
      ("core.blame.records_per_s", rate (fun r -> r.Layers.blame_ns), "1/s");
      ("core.health.records_per_s", rate (fun r -> r.Layers.health_ns), "1/s");
      ("chaos.run_plan_ms_p50", chaos_ms 0.5, "ms");
      ("chaos.run_plan_ms_p99", chaos_ms 0.99, "ms");
      ( "chaos.plan_random_us",
        c (fun c ->
            float_of_int c.Layers.plan_random_ns /. float_of_int c.Layers.plans *. 1e-3),
        "us" );
      ( "chaos.runs_per_s",
        c (fun c -> float_of_int c.Layers.runs /. (float_of_int c.Layers.wall_ns *. 1e-9)),
        "1/s" );
      ( "gc.minor_collections_per_ktxn",
        per n (gc1.Gc.minor_collections - gc0.Gc.minor_collections) *. 1000.,
        "count" );
      ( "gc.major_collections",
        float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections),
        "count" );
      ( "gc.promoted_words_per_txn",
        (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. float_of_int n,
        "words" );
      ("trace_overhead", median !traced_tps /. median !untraced_tps, "ratio");
    ]

(* ------------------------------------------------------------------ *)
(* Command line                                                          *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of fanout64, hotspot4, recorded8");
      ("--seed", Arg.Set_int seed, "N input seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S measured seconds (>= 1)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match List.find_opt (fun w -> String.equal w.name !workload) workloads with
  | None ->
    prerr_endline ("unknown workload " ^ !workload ^ "\n" ^ usage);
    exit 2
  | Some _ when !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) ->
    prerr_endline usage;
    exit 2
  | Some w ->
    let seconds = float_of_int !seconds in
    if !trace = 0 then untraced w ~seed:!seed ~seconds else traced w ~seed:!seed ~seconds
