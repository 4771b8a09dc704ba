(* Tests for the workload library: Zipf sampling, scenario construction,
   transaction generation, churn processes and the experiment harness. *)

module Zipf = Cloudtx_workload.Zipf
module Scenario = Cloudtx_workload.Scenario
module Generator = Cloudtx_workload.Generator
module Churn = Cloudtx_workload.Churn
module Experiment = Cloudtx_workload.Experiment
module Cluster = Cloudtx_core.Cluster
module Manager = Cloudtx_core.Manager
module Scheme = Cloudtx_core.Scheme
module Consistency = Cloudtx_core.Consistency
module Outcome = Cloudtx_core.Outcome
module Master = Cloudtx_core.Master
module Splitmix = Cloudtx_sim.Splitmix
module Transaction = Cloudtx_txn.Transaction
module Query = Cloudtx_txn.Query
module Sample_set = Cloudtx_metrics.Sample_set
module Running_stats = Cloudtx_metrics.Running_stats

(* ------------------------------------------------------------------ *)
(* Zipf                                                                *)
(* ------------------------------------------------------------------ *)

let test_zipf_uniform () =
  let z = Zipf.create ~n:10 ~s:0. in
  let rng = Splitmix.create 5L in
  let counts = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let i = Zipf.sample z rng in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "rank %d near uniform" i)
        true
        (c > 700 && c < 1300))
    counts

let test_zipf_skewed () =
  let z = Zipf.create ~n:10 ~s:1.2 in
  let rng = Splitmix.create 5L in
  let counts = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let i = Zipf.sample z rng in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "rank 0 dominates" true (counts.(0) > counts.(9) * 5);
  Alcotest.(check bool) "monotone-ish head" true (counts.(0) > counts.(1))

let test_zipf_guards () =
  Alcotest.check_raises "n" (Invalid_argument "Zipf.create: n must be positive")
    (fun () -> ignore (Zipf.create ~n:0 ~s:1.));
  Alcotest.check_raises "s" (Invalid_argument "Zipf.create: s must be nonnegative")
    (fun () -> ignore (Zipf.create ~n:3 ~s:(-1.)))

let prop_zipf_in_range =
  QCheck.Test.make ~name:"zipf sample in range" ~count:200
    QCheck.(pair (int_range 1 50) (float_range 0. 3.))
    (fun (n, s) ->
      let z = Zipf.create ~n ~s in
      let rng = Splitmix.create 9L in
      let i = Zipf.sample z rng in
      i >= 0 && i < n)

(* ------------------------------------------------------------------ *)
(* Scenario / Generator                                                *)
(* ------------------------------------------------------------------ *)

let test_scenario_shape () =
  let s = Scenario.retail ~n_servers:3 ~items_per_server:5 ~n_subjects:2 () in
  Alcotest.(check int) "servers" 3 (List.length s.Scenario.servers);
  Alcotest.(check int) "subjects" 2 (List.length s.Scenario.subjects);
  Alcotest.(check int) "keys per server" 5
    (List.length (s.Scenario.keys_of "server-1"));
  Alcotest.(check int) "credentials per subject" 1
    (List.length (s.Scenario.credentials_of "clerk-1"));
  Alcotest.check_raises "unknown subject"
    (Invalid_argument "Scenario: unknown subject ghost") (fun () ->
      ignore (s.Scenario.credentials_of "ghost"))

let test_spread_transaction_shape () =
  let s = Scenario.retail ~n_servers:4 () in
  let t = Scenario.spread_transaction s ~id:"t" ~subject:"clerk-1" ~queries:4 () in
  Alcotest.(check int) "four queries" 4 (Transaction.query_count t);
  Alcotest.(check (list string)) "distinct servers"
    [ "server-1"; "server-2"; "server-3"; "server-4" ]
    (Transaction.participants t);
  (* More queries than servers wrap around. *)
  let t6 = Scenario.spread_transaction s ~id:"t6" ~subject:"clerk-1" ~queries:6 () in
  Alcotest.(check int) "still 4 participants" 4
    (List.length (Transaction.participants t6))

let test_generator_validity () =
  let s = Scenario.retail ~n_servers:3 ~n_subjects:2 () in
  let rng = Splitmix.create 21L in
  let params = { Generator.default with queries_per_txn = 5; write_ratio = 0.5 } in
  for i = 1 to 20 do
    let t = Generator.generate s rng params ~id:(Printf.sprintf "g%d" i) in
    Alcotest.(check int) "query count" 5 (Transaction.query_count t);
    Alcotest.(check bool) "known subject" true
      (List.mem t.Transaction.subject s.Scenario.subjects);
    List.iter
      (fun (q : Query.t) ->
        Alcotest.(check bool) "keys hosted by the query's server" true
          (List.for_all
             (fun item -> List.mem item (s.Scenario.keys_of q.Query.server))
             (Query.items q)))
      t.Transaction.queries
  done

(* Everything a generated transaction carries that the draws decide: ids,
   subject, servers, keys and written values, in order. *)
let transaction_fingerprint buf (t : Transaction.t) =
  Printf.bprintf buf "%s %s\n" t.Transaction.id t.Transaction.subject;
  List.iter
    (fun (q : Query.t) ->
      Printf.bprintf buf " %s@%s r=%s w=%s\n" q.Query.id q.Query.server
        (String.concat "," q.Query.reads)
        (String.concat ","
           (List.map
              (fun (k, u) ->
                k ^ ":" ^ Format.asprintf "%a" Cloudtx_store.Value.pp_update u)
              q.Query.writes)))
    t.Transaction.queries

let generated_digest ~servers ~zipf_s ~spread =
  let s = Scenario.retail ~n_servers:servers ~items_per_server:20 ~n_subjects:5 () in
  let rng = Splitmix.create 42L in
  let params = { Generator.queries_per_txn = 4; write_ratio = 0.3; zipf_s; spread } in
  let buf = Buffer.create 65536 in
  for i = 1 to 500 do
    transaction_fingerprint buf
      (Generator.generate s rng params ~id:(Printf.sprintf "t%d" i))
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Pinned from the generator as it stood before its per-scenario tables:
   precomputing key arrays and Zipf tables must not change one draw. *)
let test_generator_golden () =
  List.iter
    (fun (servers, zipf_s, spread, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "servers=%d zipf=%g %s" servers zipf_s
           (match spread with `Round_robin -> "round-robin" | `Random -> "random"))
        expected
        (generated_digest ~servers ~zipf_s ~spread))
    [
      (4, 0., `Round_robin, "7373c99d7c79430a371c7bfebfc6eead");
      (4, 0., `Random, "1be06f6cd37ed8b3129f815cdd1ca397");
      (4, 0.8, `Round_robin, "9f67ba02fe1b4d5cd88fcef827338cad");
      (4, 0.8, `Random, "6128983a97731e91f445961d48c285e3");
      (64, 0., `Round_robin, "22078368e412c1e51523af3c99f72d22");
      (64, 0., `Random, "f8846e1c11cb4e079c02bdaf791bcfe7");
      (64, 0.8, `Round_robin, "9784e7cad5d0144586d1dcf013dab3c1");
      (64, 0.8, `Random, "ebf91d02f38329519737c7ed5df75063");
    ]

(* Minor-heap words per [generate] call, after one warm-up call. *)
let words_per_generate ~servers =
  let s = Scenario.retail ~n_servers:servers ~items_per_server:20 ~n_subjects:5 () in
  let rng = Splitmix.create 7L in
  let params = { Generator.default with zipf_s = 0.8 } in
  ignore (Generator.generate s rng params ~id:"warm");
  let n = 200 in
  let before = Gc.minor_words () in
  for i = 1 to n do
    ignore (Generator.generate s rng params ~id:(Printf.sprintf "t%03d" i))
  done;
  (Gc.minor_words () -. before) /. float_of_int n

(* The scenario's tables are built once; a transaction's cost depends on
   the servers it touches, not on how many the cluster has. *)
let test_generator_alloc_flat () =
  let small = words_per_generate ~servers:4 in
  let large = words_per_generate ~servers:64 in
  Alcotest.(check bool)
    (Printf.sprintf "64 servers: %.0f words/txn within 1.5x of 4 servers: %.0f" large
       small)
    true
    (large <= 1.5 *. small)

let test_keys_of_stored () =
  let s = Scenario.retail ~n_servers:3 ~items_per_server:4 () in
  let k = s.Scenario.keys_of "server-2" in
  Alcotest.(check (list string)) "keys of server-2"
    [ "s2-k1"; "s2-k2"; "s2-k3"; "s2-k4" ] k;
  Alcotest.(check bool) "the stored list, not a fresh one" true
    (k == s.Scenario.keys_of "server-2");
  Alcotest.(check (array string)) "matches key_arrays"
    s.Scenario.key_arrays.(1) (Array.of_list k);
  Alcotest.check_raises "unknown server"
    (Invalid_argument "Scenario.keys_of: unknown server server-9") (fun () ->
      ignore (s.Scenario.keys_of "server-9"))

let test_arrival_times () =
  let rng = Splitmix.create 3L in
  let times = Generator.arrival_times rng ~rate:0.1 ~horizon:1000. in
  Alcotest.(check bool) "nonempty" true (List.length times > 50);
  Alcotest.(check bool) "ascending in horizon" true
    (let rec ok = function
       | a :: (b :: _ as rest) -> a < b && ok rest
       | [ x ] -> x < 1000.
       | [] -> true
     in
     ok times)

(* ------------------------------------------------------------------ *)
(* Churn                                                               *)
(* ------------------------------------------------------------------ *)

let test_policy_refresh_publishes () =
  let s = Scenario.retail () in
  Churn.policy_refresh s ~period:10. ~propagation:(0., 0.) ~count:3;
  ignore (Cluster.run s.Scenario.cluster);
  Alcotest.(check (option int)) "master at v4" (Some 4)
    (Master.latest (Cluster.master s.Scenario.cluster) ~domain:"retail")

let test_tighten_at () =
  let s = Scenario.retail () in
  Churn.tighten_at s ~time:5. ~propagation:(0., 0.);
  ignore (Cluster.run s.Scenario.cluster);
  Alcotest.(check (option int)) "master bumped" (Some 2)
    (Master.latest (Cluster.master s.Scenario.cluster) ~domain:"retail")

let test_revoke_at () =
  let s = Scenario.retail () in
  Churn.revoke_at s ~subject:"clerk-1" ~time:5.;
  ignore (Cluster.run s.Scenario.cluster);
  let cred = List.hd (s.Scenario.credentials_of "clerk-1") in
  Alcotest.(check bool) "revoked after" true
    (match
       Cloudtx_policy.Ca.status s.Scenario.ca cred.Cloudtx_policy.Credential.id
         ~at:10.
     with
    | Cloudtx_policy.Ca.Revoked _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Experiment harness                                                  *)
(* ------------------------------------------------------------------ *)

let test_run_sequential_stats () =
  let s = Scenario.retail ~n_servers:3 ~n_subjects:2 () in
  let rng = Splitmix.create 17L in
  let params = { Generator.default with queries_per_txn = 3 } in
  let stats =
    Experiment.run_sequential s
      (Manager.config Scheme.Deferred Consistency.View)
      ~n:10
      (fun ~i -> Generator.generate s rng params ~id:(Printf.sprintf "t%d" i))
  in
  Alcotest.(check int) "ten outcomes" 10 (List.length stats.Experiment.outcomes);
  Alcotest.(check int) "all committed (no churn)" 10 stats.Experiment.committed;
  Alcotest.(check (float 1e-9)) "commit ratio" 1. (Experiment.commit_ratio stats);
  Alcotest.(check int) "latency samples" 10
    (Sample_set.count stats.Experiment.latency_ms);
  Alcotest.(check bool) "positive latency" true
    (Sample_set.min stats.Experiment.latency_ms > 0.);
  (* Deferred, no churn: u proofs per transaction. *)
  Alcotest.(check (float 1e-9)) "u proofs each" 3.
    (Running_stats.mean stats.Experiment.proofs);
  Alcotest.(check bool) "messages tracked" true
    (Running_stats.mean stats.Experiment.protocol_messages > 0.);
  Alcotest.(check int) "no proof tally left open" 0
    (Cloudtx_core.Proof_tally.in_flight (Cluster.proof_tally s.Scenario.cluster))

let test_run_open_concurrent () =
  let s = Scenario.retail ~n_servers:3 ~n_subjects:3 () in
  let rng = Splitmix.create 31L in
  let params =
    { Generator.default with queries_per_txn = 2; write_ratio = 1.; zipf_s = 1.5 }
  in
  let arrivals = List.init 12 (fun i -> float_of_int i *. 0.4) in
  let stats =
    Experiment.run_open s
      (Manager.config Scheme.Deferred Consistency.View)
      ~arrivals
      (fun ~i -> Generator.generate s rng params ~id:(Printf.sprintf "t%d" i))
  in
  Alcotest.(check int) "all finished" 12
    (stats.Experiment.committed + stats.Experiment.aborted);
  (* Hot keys under concurrency: wait-die may abort some, but the system
     always makes progress. *)
  Alcotest.(check bool) "progress" true (stats.Experiment.committed >= 1);
  List.iter
    (fun (o : Outcome.t) ->
      if not o.Outcome.committed then
        Alcotest.(check string) "aborts are wait-die" "wait-die"
          (Outcome.reason_name o.Outcome.reason))
    stats.Experiment.outcomes;
  Alcotest.(check int) "no proof tally left open" 0
    (Cloudtx_core.Proof_tally.in_flight (Cluster.proof_tally s.Scenario.cluster))

let test_run_closed () =
  let s = Scenario.retail ~seed:9L ~n_servers:3 ~n_subjects:3 () in
  let rng = Splitmix.create 13L in
  let params = { Generator.default with queries_per_txn = 2; write_ratio = 0.2 } in
  let stats, tps =
    Experiment.run_closed s
      (Manager.config Scheme.Deferred Consistency.View)
      ~clients:4 ~total:25
      (fun ~i -> Generator.generate s rng params ~id:(Printf.sprintf "t%d" i))
  in
  Alcotest.(check int) "all complete" 25
    (stats.Experiment.committed + stats.Experiment.aborted);
  Alcotest.(check bool) "throughput positive" true (tps > 0.);
  (* Four clients in flight: the run must be faster than a serial one. *)
  let _, tps1 =
    let s = Scenario.retail ~seed:9L ~n_servers:3 ~n_subjects:3 () in
    let rng = Splitmix.create 13L in
    Experiment.run_closed s
      (Manager.config Scheme.Deferred Consistency.View)
      ~clients:1 ~total:25
      (fun ~i -> Generator.generate s rng params ~id:(Printf.sprintf "t%d" i))
  in
  Alcotest.(check bool)
    (Printf.sprintf "parallel beats serial (%.0f vs %.0f)" tps tps1)
    true (tps > tps1)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "workload"
    [
      ( "zipf",
        [
          Alcotest.test_case "uniform" `Quick test_zipf_uniform;
          Alcotest.test_case "skewed" `Quick test_zipf_skewed;
          Alcotest.test_case "guards" `Quick test_zipf_guards;
          qc prop_zipf_in_range;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "shape" `Quick test_scenario_shape;
          Alcotest.test_case "spread transaction" `Quick
            test_spread_transaction_shape;
          Alcotest.test_case "generator validity" `Quick test_generator_validity;
          Alcotest.test_case "generator golden digests" `Quick test_generator_golden;
          Alcotest.test_case "generator alloc flat in servers" `Quick
            test_generator_alloc_flat;
          Alcotest.test_case "keys_of stored" `Quick test_keys_of_stored;
          Alcotest.test_case "arrival times" `Quick test_arrival_times;
        ] );
      ( "churn",
        [
          Alcotest.test_case "policy refresh" `Quick test_policy_refresh_publishes;
          Alcotest.test_case "tighten" `Quick test_tighten_at;
          Alcotest.test_case "revoke" `Quick test_revoke_at;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "sequential stats" `Quick test_run_sequential_stats;
          Alcotest.test_case "open concurrent" `Quick test_run_open_concurrent;
          Alcotest.test_case "closed loop" `Quick test_run_closed;
        ] );
    ]
