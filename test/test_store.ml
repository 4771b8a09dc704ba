(* Unit and property tests for the store: values, locks (wait-die),
   integrity constraints, WAL and the data server. *)

module Value = Cloudtx_store.Value
module Lock_manager = Cloudtx_store.Lock_manager
module Integrity = Cloudtx_store.Integrity
module Wal = Cloudtx_store.Wal
module Server = Cloudtx_store.Server

(* ------------------------------------------------------------------ *)
(* Value                                                               *)
(* ------------------------------------------------------------------ *)

let test_value () =
  Alcotest.(check bool) "int equal" true (Value.equal (Value.Int 3) (Value.Int 3));
  Alcotest.(check bool) "kind differs" false
    (Value.equal (Value.Int 3) (Value.Text "3"));
  Alcotest.(check (option int)) "as_int" (Some 3) (Value.as_int (Value.Int 3));
  Alcotest.(check (option int)) "text as_int" None (Value.as_int (Value.Text "x"));
  Alcotest.(check string) "to_string" "3" (Value.to_string (Value.Int 3))

(* ------------------------------------------------------------------ *)
(* Lock manager                                                        *)
(* ------------------------------------------------------------------ *)

let test_shared_compatible () =
  let lm = Lock_manager.create () in
  Alcotest.(check bool) "t1 S" true
    (Lock_manager.acquire lm ~txn:"t1" ~ts:1. ~key:"k" Lock_manager.Shared
    = Lock_manager.Granted);
  Alcotest.(check bool) "t2 S" true
    (Lock_manager.acquire lm ~txn:"t2" ~ts:2. ~key:"k" Lock_manager.Shared
    = Lock_manager.Granted);
  Alcotest.(check int) "two holders" 2 (List.length (Lock_manager.holders lm ~key:"k"))

let test_wait_die () =
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm ~txn:"holder" ~ts:5. ~key:"k" Lock_manager.Exclusive);
  (* Older requester (smaller ts) waits. *)
  Alcotest.(check bool) "older waits" true
    (Lock_manager.acquire lm ~txn:"old" ~ts:1. ~key:"k" Lock_manager.Shared
    = Lock_manager.Queued);
  (* Younger requester dies. *)
  Alcotest.(check bool) "younger dies" true
    (Lock_manager.acquire lm ~txn:"young" ~ts:9. ~key:"k" Lock_manager.Shared
    = Lock_manager.Die);
  Alcotest.(check (list string)) "queue" [ "old" ] (Lock_manager.waiters lm ~key:"k")

let test_release_promotes () =
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm ~txn:"holder" ~ts:5. ~key:"k" Lock_manager.Exclusive);
  ignore (Lock_manager.acquire lm ~txn:"old" ~ts:1. ~key:"k" Lock_manager.Exclusive);
  let release = Lock_manager.release_all lm ~txn:"holder" in
  Alcotest.(check int) "one promotion" 1 (List.length release.Lock_manager.granted);
  Alcotest.(check int) "no kills" 0 (List.length release.Lock_manager.killed);
  (match release.Lock_manager.granted with
  | [ (txn, key, mode) ] ->
    Alcotest.(check string) "who" "old" txn;
    Alcotest.(check string) "key" "k" key;
    Alcotest.(check bool) "mode" true (mode = Lock_manager.Exclusive)
  | _ -> Alcotest.fail "expected one promotion");
  Alcotest.(check (list (pair string Alcotest.reject))) "holder gone" []
    (List.map (fun (t, _) -> (t, ())) (Lock_manager.holders lm ~key:"k") |> List.filter (fun (t, _) -> t = "holder"))

let test_reacquire_idempotent () =
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm ~txn:"t" ~ts:1. ~key:"k" Lock_manager.Shared);
  Alcotest.(check bool) "re-acquire S" true
    (Lock_manager.acquire lm ~txn:"t" ~ts:1. ~key:"k" Lock_manager.Shared
    = Lock_manager.Granted);
  Alcotest.(check int) "still one holder" 1
    (List.length (Lock_manager.holders lm ~key:"k"))

let test_upgrade () =
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm ~txn:"t" ~ts:1. ~key:"k" Lock_manager.Shared);
  Alcotest.(check bool) "sole holder upgrades" true
    (Lock_manager.acquire lm ~txn:"t" ~ts:1. ~key:"k" Lock_manager.Exclusive
    = Lock_manager.Granted);
  (* With another Shared holder, an older upgrader queues. *)
  let lm2 = Lock_manager.create () in
  ignore (Lock_manager.acquire lm2 ~txn:"a" ~ts:1. ~key:"k" Lock_manager.Shared);
  ignore (Lock_manager.acquire lm2 ~txn:"b" ~ts:2. ~key:"k" Lock_manager.Shared);
  Alcotest.(check bool) "upgrade blocked" true
    (Lock_manager.acquire lm2 ~txn:"a" ~ts:1. ~key:"k" Lock_manager.Exclusive
    = Lock_manager.Queued);
  (* Releasing b grants a's queued upgrade. *)
  let release = Lock_manager.release_all lm2 ~txn:"b" in
  Alcotest.(check bool) "upgrade granted on release" true
    (List.exists
       (fun (t, _, m) -> t = "a" && m = Lock_manager.Exclusive)
       release.Lock_manager.granted)

let test_promotion_reapplies_wait_die () =
  (* holder young(10) on k; old(1) and mid(5) queue (both older than 10).
     When young releases, old becomes the holder; mid is now YOUNGER than
     the holder — keeping it queued would be a young-waits-for-old edge
     (the distributed-deadlock hole), so it must die at promotion. *)
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm ~txn:"young" ~ts:10. ~key:"k" Lock_manager.Exclusive);
  Alcotest.(check bool) "old queues" true
    (Lock_manager.acquire lm ~txn:"old" ~ts:1. ~key:"k" Lock_manager.Exclusive
    = Lock_manager.Queued);
  Alcotest.(check bool) "mid queues" true
    (Lock_manager.acquire lm ~txn:"mid" ~ts:5. ~key:"k" Lock_manager.Exclusive
    = Lock_manager.Queued);
  let release = Lock_manager.release_all lm ~txn:"young" in
  Alcotest.(check bool) "old granted" true
    (List.exists (fun (t, _, _) -> t = "old") release.Lock_manager.granted);
  Alcotest.(check bool) "mid killed" true
    (List.exists (fun (t, _) -> t = "mid") release.Lock_manager.killed);
  Alcotest.(check (list string)) "queue empty" [] (Lock_manager.waiters lm ~key:"k")

let test_promotion_repeats_after_kill () =
  (* holder h(10) X; queue a(2) S, b(5) X, c(7) S.  When h releases, a is
     granted and b stops the grant loop; b is younger than a and dies.
     c, behind b, shares the lock with a: it must be granted now, not left
     queued with no release ahead to promote it. *)
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm ~txn:"h" ~ts:10. ~key:"k" Lock_manager.Exclusive);
  List.iter
    (fun (txn, ts, mode) ->
      Alcotest.(check bool) (txn ^ " queues") true
        (Lock_manager.acquire lm ~txn ~ts ~key:"k" mode = Lock_manager.Queued))
    [
      ("a", 2., Lock_manager.Shared);
      ("b", 5., Lock_manager.Exclusive);
      ("c", 7., Lock_manager.Shared);
    ];
  let release = Lock_manager.release_all lm ~txn:"h" in
  Alcotest.(check (list string)) "granted" [ "a"; "c" ]
    (List.map (fun (t, _, _) -> t) release.Lock_manager.granted);
  Alcotest.(check (list string)) "killed" [ "b" ]
    (List.map fst release.Lock_manager.killed);
  Alcotest.(check (list string)) "queue empty" [] (Lock_manager.waiters lm ~key:"k")

let test_held_by_and_clear () =
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm ~txn:"t" ~ts:1. ~key:"a" Lock_manager.Shared);
  ignore (Lock_manager.acquire lm ~txn:"t" ~ts:1. ~key:"b" Lock_manager.Exclusive);
  Alcotest.(check (list string)) "held" [ "a"; "b" ] (Lock_manager.held_by lm ~txn:"t");
  Lock_manager.clear lm;
  Alcotest.(check (list string)) "cleared" [] (Lock_manager.held_by lm ~txn:"t")

let prop_wait_die_no_deadlock =
  (* Random lock workloads, acquires mixed with releases: every request
     resolves to Granted/Queued/Die, and a queued transaction is always
     strictly older than some holder, so the waits-for relation only
     points old->young: no cycles.  And after every operation no queue
     head could be granted: nobody waits for a lock that is free for it,
     which would leave it queued with no release left to promote it. *)
  QCheck.Test.make ~name:"wait-die admits no old->young waits" ~count:2000
    QCheck.(
      list_of_size Gen.(1 -- 40)
        (triple (int_range 0 5) (int_range 0 2) (int_range 0 2)))
    (fun ops ->
      let lm = Lock_manager.create () in
      let keys = List.init 3 (Printf.sprintf "k%d") in
      let ts_of txn = float_of_string (String.sub txn 1 (String.length txn - 1)) in
      (* The mode of each queued (txn, key) request. *)
      let requested = Hashtbl.create 16 in
      let head_grantable key =
        match Lock_manager.waiters lm ~key with
        | [] -> false
        | head :: _ -> (
          let own, others =
            List.partition
              (fun (h, _) -> String.equal h head)
              (Lock_manager.holders lm ~key)
          in
          match (own, Hashtbl.find requested (head, key)) with
          | _ :: _, Lock_manager.Shared -> true
          | _ :: _, Lock_manager.Exclusive | [], Lock_manager.Exclusive ->
            others = []
          | [], Lock_manager.Shared ->
            List.for_all (fun (_, m) -> m = Lock_manager.Shared) others)
      in
      let settled () = not (List.exists head_grantable keys) in
      List.for_all
        (fun (txn_i, key_i, op) ->
          let txn = Printf.sprintf "t%d" txn_i in
          let ts = float_of_int txn_i in
          let key = Printf.sprintf "k%d" key_i in
          let waiting =
            List.exists (fun k -> List.mem txn (Lock_manager.waiters lm ~key:k)) keys
          in
          if op = 2 then begin
            ignore (Lock_manager.release_all lm ~txn);
            settled ()
          end
          else if waiting then true (* blocked: it issues no request *)
          else begin
            let mode = if op = 1 then Lock_manager.Exclusive else Lock_manager.Shared in
            match Lock_manager.acquire lm ~txn ~ts ~key mode with
            | Lock_manager.Granted | Lock_manager.Die -> settled ()
            | Lock_manager.Queued ->
              Hashtbl.replace requested (txn, key) mode;
              (* Queued implies strictly older than every conflicting holder. *)
              List.for_all
                (fun (holder, _) -> String.equal holder txn || ts < ts_of holder)
                (Lock_manager.holders lm ~key)
              && settled ()
          end)
        ops)

(* ------------------------------------------------------------------ *)
(* Integrity                                                           *)
(* ------------------------------------------------------------------ *)

let lookup_of assoc key = List.assoc_opt key assoc

let test_integrity_combinators () =
  let state = [ ("a", Value.Int 5); ("b", Value.Int (-1)); ("t", Value.Text "x") ] in
  let lookup = lookup_of state in
  Alcotest.(check (list string)) "non_negative ok" []
    (Integrity.check_all [ Integrity.non_negative "a" ] lookup);
  Alcotest.(check int) "non_negative violated" 1
    (List.length (Integrity.check_all [ Integrity.non_negative "b" ] lookup));
  Alcotest.(check int) "missing key violates" 1
    (List.length (Integrity.check_all [ Integrity.non_negative "zz" ] lookup));
  Alcotest.(check int) "text violates numeric" 1
    (List.length (Integrity.check_all [ Integrity.non_negative "t" ] lookup));
  Alcotest.(check (list string)) "range ok" []
    (Integrity.check_all [ Integrity.range "a" ~lo:0 ~hi:10 ] lookup);
  Alcotest.(check int) "range violated" 1
    (List.length (Integrity.check_all [ Integrity.range "a" ~lo:6 ~hi:10 ] lookup))

let test_integrity_sums () =
  let state = [ ("a", Value.Int 30); ("b", Value.Int 70) ] in
  let lookup = lookup_of state in
  Alcotest.(check (list string)) "sum_at_most ok" []
    (Integrity.check_all [ Integrity.sum_at_most [ "a"; "b" ] ~bound:100 ] lookup);
  Alcotest.(check int) "sum_at_most violated" 1
    (List.length
       (Integrity.check_all [ Integrity.sum_at_most [ "a"; "b" ] ~bound:99 ] lookup));
  Alcotest.(check (list string)) "sum_preserved ok" []
    (Integrity.check_all [ Integrity.sum_preserved [ "a"; "b" ] ~total:100 ] lookup);
  Alcotest.(check int) "sum_preserved violated" 1
    (List.length
       (Integrity.check_all
          [ Integrity.sum_preserved [ "a"; "b" ] ~total:10 ]
          lookup))

(* ------------------------------------------------------------------ *)
(* WAL                                                                 *)
(* ------------------------------------------------------------------ *)

let test_wal_basics () =
  let wal = Wal.create () in
  let l0 = Wal.append wal ~time:0. ~forced:false (Wal.Begin_txn { txn = "t" }) in
  let l1 =
    Wal.append wal ~time:1. ~forced:true
      (Wal.Prepared
         {
           txn = "t";
           writes = [ ("k", Value.Int 1) ];
           integrity_vote = true;
           proof_truth = true;
           policy_versions = [ ("retail", 3) ];
         })
  in
  Alcotest.(check int) "lsns" 1 (l1 - l0);
  Alcotest.(check int) "forced count" 1 (Wal.force_count wal);
  Alcotest.(check int) "length" 2 (Wal.length wal)

let test_wal_recover_states () =
  let wal = Wal.create () in
  let prepared txn =
    Wal.Prepared
      {
        txn;
        writes = [ (txn ^ "-k", Value.Int 7) ];
        integrity_vote = true;
        proof_truth = true;
        policy_versions = [];
      }
  in
  ignore (Wal.append wal ~time:0. ~forced:false (Wal.Begin_txn { txn = "active" }));
  ignore (Wal.append wal ~time:0. ~forced:false (Wal.Begin_txn { txn = "doubt" }));
  ignore (Wal.append wal ~time:1. ~forced:true (prepared "doubt"));
  ignore (Wal.append wal ~time:0. ~forced:false (Wal.Begin_txn { txn = "done" }));
  ignore (Wal.append wal ~time:1. ~forced:true (prepared "done"));
  ignore (Wal.append wal ~time:2. ~forced:true (Wal.Decision { txn = "done"; commit = true }));
  ignore (Wal.append wal ~time:3. ~forced:false (Wal.End_txn { txn = "done" }));
  Alcotest.(check bool) "no trace" true (Wal.recover_txn wal ~txn:"ghost" = `No_trace);
  Alcotest.(check bool) "active" true (Wal.recover_txn wal ~txn:"active" = `Active);
  (match Wal.recover_txn wal ~txn:"doubt" with
  | `Prepared (writes, _) ->
    Alcotest.(check int) "in-doubt writes" 1 (List.length writes)
  | _ -> Alcotest.fail "expected Prepared");
  Alcotest.(check bool) "finished" true (Wal.recover_txn wal ~txn:"done" = `Finished)

let test_wal_serialize_round_trip () =
  let wal = Wal.create () in
  ignore (Wal.append wal ~time:0. ~forced:false (Wal.Begin_txn { txn = "t" }));
  ignore
    (Wal.append wal ~time:1. ~forced:true
       (Wal.Prepared
          {
            txn = "t";
            writes = [ ("k", Value.Int 1); ("s", Value.Text "v") ];
            integrity_vote = true;
            proof_truth = false;
            policy_versions = [ ("retail", 3) ];
          }));
  ignore
    (Wal.append wal ~time:2. ~forced:true (Wal.Decision { txn = "t"; commit = true }));
  ignore (Wal.append wal ~time:3. ~forced:false (Wal.End_txn { txn = "t" }));
  let loaded, dropped = Wal.load (Wal.serialize wal) in
  Alcotest.(check int) "nothing dropped" 0 dropped;
  Alcotest.(check int) "length preserved" (Wal.length wal) (Wal.length loaded);
  Alcotest.(check int) "forces preserved" (Wal.force_count wal)
    (Wal.force_count loaded);
  Alcotest.(check bool) "same analysis" true
    (Wal.recover_txn wal ~txn:"t" = Wal.recover_txn loaded ~txn:"t");
  Alcotest.(check string) "stable rendering" (Wal.serialize wal)
    (Wal.serialize loaded)

let test_wal_torn_tail () =
  let wal = Wal.create () in
  ignore (Wal.append wal ~time:0. ~forced:false (Wal.Begin_txn { txn = "t" }));
  ignore
    (Wal.append wal ~time:1. ~forced:true
       (Wal.Prepared
          {
            txn = "t";
            writes = [ ("k", Value.Int 1) ];
            integrity_vote = true;
            proof_truth = true;
            policy_versions = [];
          }));
  ignore
    (Wal.append wal ~time:2. ~forced:true (Wal.Decision { txn = "t"; commit = true }));
  let data = Wal.serialize wal in
  (* Tear the final record mid-line, as a crash during the write would. *)
  let cut = String.length data - (String.length data / 4) in
  let torn = String.sub data 0 cut in
  let loaded, dropped = Wal.load torn in
  Alcotest.(check int) "torn line dropped" 1 dropped;
  Alcotest.(check int) "valid prefix kept" 2 (Wal.length loaded);
  Alcotest.(check bool) "analysis falls back to in-doubt" true
    (match Wal.recover_txn loaded ~txn:"t" with `Prepared _ -> true | _ -> false);
  (* A corrupted byte inside the tail line is also caught by the checksum. *)
  let flipped = Bytes.of_string data in
  Bytes.set flipped (String.length data - 10) '#';
  let loaded, dropped = Wal.load (Bytes.to_string flipped) in
  Alcotest.(check int) "corrupt line dropped" 1 dropped;
  Alcotest.(check int) "prefix before corruption kept" 2 (Wal.length loaded)

let test_wal_truncate () =
  let wal = Wal.create () in
  ignore (Wal.append wal ~time:0. ~forced:true (Wal.Begin_txn { txn = "a" }));
  let keep = Wal.append wal ~time:1. ~forced:true (Wal.Decision { txn = "a"; commit = true }) in
  ignore (Wal.append wal ~time:2. ~forced:false (Wal.End_txn { txn = "a" }));
  Wal.truncate_after wal keep;
  Alcotest.(check int) "tail dropped" 2 (Wal.length wal);
  Alcotest.(check bool) "state now committed" true
    (match Wal.recover_txn wal ~txn:"a" with `Committed _ -> true | _ -> false)

let test_wal_checkpoint_truncation () =
  let wal = Wal.create () in
  let prepared txn =
    Wal.Prepared
      {
        txn;
        writes = [ (txn ^ "-k", Value.Int 1) ];
        integrity_vote = true;
        proof_truth = true;
        policy_versions = [];
      }
  in
  (* A finished transaction and an in-doubt one, then a checkpoint. *)
  ignore (Wal.append wal ~time:0. ~forced:false (Wal.Begin_txn { txn = "done" }));
  ignore (Wal.append wal ~time:1. ~forced:true (prepared "done"));
  ignore (Wal.append wal ~time:2. ~forced:true (Wal.Decision { txn = "done"; commit = true }));
  ignore (Wal.append wal ~time:3. ~forced:false (Wal.End_txn { txn = "done" }));
  ignore (Wal.append wal ~time:4. ~forced:false (Wal.Begin_txn { txn = "doubt" }));
  ignore (Wal.append wal ~time:5. ~forced:true (prepared "doubt"));
  ignore (Wal.checkpoint wal ~time:6. ~active:[ "doubt" ]);
  let reclaimed = Wal.truncate_to_checkpoint wal in
  (* The four "done" records go; "doubt"'s two stay. *)
  Alcotest.(check int) "reclaimed" 4 reclaimed;
  Alcotest.(check bool) "done presumed" true (Wal.recover_txn wal ~txn:"done" = `No_trace);
  Alcotest.(check bool) "doubt still recoverable" true
    (match Wal.recover_txn wal ~txn:"doubt" with `Prepared _ -> true | _ -> false);
  (* No checkpoint: no-op. *)
  Alcotest.(check int) "no checkpoint" 0 (Wal.truncate_to_checkpoint (Wal.create ()))

let test_server_checkpoint () =
  let s =
    Server.create ~name:"s" ~items:[ ("x", Value.Int 1); ("y", Value.Int 2) ] ()
  in
  (* Finish one transaction, leave another open, checkpoint. *)
  Server.begin_work s ~txn:"t1" ~ts:1. ~time:0.;
  ignore (Server.execute s ~txn:"t1" ~reads:[] ~writes:[ ("x", Value.Set (Value.Int 9)) ]);
  ignore (Server.prepare s ~txn:"t1" ~time:1. ~proof_truth:true ~policy_versions:[]);
  ignore (Server.commit s ~txn:"t1" ~time:2.);
  Server.finish s ~txn:"t1" ~time:3.;
  Server.begin_work s ~txn:"t2" ~ts:2. ~time:4.;
  ignore (Server.execute s ~txn:"t2" ~reads:[] ~writes:[ ("y", Value.Set (Value.Int 8)) ]);
  ignore (Server.prepare s ~txn:"t2" ~time:5. ~proof_truth:true ~policy_versions:[]);
  let reclaimed = Server.checkpoint s ~time:6. in
  Alcotest.(check bool) "reclaimed t1's records" true (reclaimed >= 4);
  (* Crash + recover: the open transaction is still in doubt, data
     survives. *)
  Server.crash s;
  let in_doubt = Server.recover s ~time:7. in
  Alcotest.(check (list string)) "t2 in doubt" [ "t2" ] in_doubt;
  Alcotest.(check bool) "committed data intact" true
    (Server.get s "x" = Some (Value.Int 9));
  ignore (Server.commit s ~txn:"t2" ~time:8.);
  Alcotest.(check bool) "t2 applied after recovery" true
    (Server.get s "y" = Some (Value.Int 8))

(* ------------------------------------------------------------------ *)
(* Server                                                              *)
(* ------------------------------------------------------------------ *)

let make_server ?(constraints = []) () =
  Server.create ~name:"s1" ~constraints
    ~items:[ ("x", Value.Int 100); ("y", Value.Int 50) ]
    ()

let test_server_execute_and_overlay () =
  let s = make_server () in
  Server.begin_work s ~txn:"t" ~ts:1. ~time:0.;
  (match
     Server.execute s ~txn:"t" ~reads:[ "x" ] ~writes:[ ("y", Value.Set (Value.Int 7)) ]
   with
  | Server.Executed reads ->
    Alcotest.(check bool) "read committed x" true
      (List.assoc "x" reads = Some (Value.Int 100))
  | _ -> Alcotest.fail "expected Executed");
  (* Overlay sees the buffered write; committed state does not. *)
  Alcotest.(check bool) "overlay y" true
    (Server.overlay s ~txn:"t" "y" = Some (Value.Int 7));
  Alcotest.(check bool) "committed y unchanged" true
    (Server.get s "y" = Some (Value.Int 50))

let test_server_unhosted_key () =
  let s = make_server () in
  Server.begin_work s ~txn:"t" ~ts:1. ~time:0.;
  Alcotest.check_raises "unhosted"
    (Invalid_argument "Server s1 does not host data item zz") (fun () ->
      ignore (Server.execute s ~txn:"t" ~reads:[ "zz" ] ~writes:[]))

let test_server_integrity_vote () =
  let s = make_server ~constraints:[ Integrity.non_negative "x" ] () in
  Server.begin_work s ~txn:"t" ~ts:1. ~time:0.;
  ignore (Server.execute s ~txn:"t" ~reads:[] ~writes:[ ("x", Value.Set (Value.Int (-5))) ]);
  Alcotest.(check int) "violation detected" 1
    (List.length (Server.integrity_violations s ~txn:"t"));
  let vote = Server.prepare s ~txn:"t" ~time:1. ~proof_truth:true ~policy_versions:[] in
  Alcotest.(check bool) "votes NO" false vote;
  Alcotest.(check int) "prepare forced" 1 (Wal.force_count (Server.wal s))

let test_server_commit_applies () =
  let s = make_server () in
  Server.begin_work s ~txn:"t" ~ts:1. ~time:0.;
  ignore (Server.execute s ~txn:"t" ~reads:[] ~writes:[ ("x", Value.Set (Value.Int 1)) ]);
  ignore (Server.prepare s ~txn:"t" ~time:1. ~proof_truth:true ~policy_versions:[]);
  ignore (Server.commit s ~txn:"t" ~time:2.);
  Server.finish s ~txn:"t" ~time:3.;
  Alcotest.(check bool) "applied" true (Server.get s "x" = Some (Value.Int 1));
  (* prepared + decision forced = 2. *)
  Alcotest.(check int) "forced writes" 2 (Wal.force_count (Server.wal s));
  Alcotest.(check (list string)) "locks released" []
    (Lock_manager.held_by (Server.locks s) ~txn:"t")

let test_server_abort_drops () =
  let s = make_server () in
  Server.begin_work s ~txn:"t" ~ts:1. ~time:0.;
  ignore (Server.execute s ~txn:"t" ~reads:[] ~writes:[ ("x", Value.Set (Value.Int 1)) ]);
  ignore (Server.abort s ~txn:"t" ~time:1.);
  Alcotest.(check bool) "unchanged" true (Server.get s "x" = Some (Value.Int 100))

let test_server_lock_conflict_and_promotion () =
  let s = make_server () in
  Server.begin_work s ~txn:"young" ~ts:10. ~time:0.;
  Server.begin_work s ~txn:"old" ~ts:1. ~time:0.;
  ignore (Server.execute s ~txn:"young" ~reads:[] ~writes:[ ("x", Value.Set (Value.Int 1)) ]);
  (* Older conflicting writer queues. *)
  (match Server.execute s ~txn:"old" ~reads:[] ~writes:[ ("x", Value.Set (Value.Int 2)) ] with
  | Server.Blocked -> ()
  | _ -> Alcotest.fail "expected Blocked");
  (* Younger third transaction dies. *)
  Server.begin_work s ~txn:"younger" ~ts:20. ~time:0.;
  (match Server.execute s ~txn:"younger" ~reads:[ "x" ] ~writes:[] with
  | Server.Die -> ()
  | _ -> Alcotest.fail "expected Die");
  (* Committing the young holder promotes the old waiter. *)
  let release = Server.commit s ~txn:"young" ~time:1. in
  Alcotest.(check bool) "old promoted" true
    (List.exists
       (fun (t, k, _) -> t = "old" && k = "x")
       release.Lock_manager.granted);
  (match Server.execute s ~txn:"old" ~reads:[] ~writes:[ ("x", Value.Set (Value.Int 2)) ] with
  | Server.Executed _ -> ()
  | _ -> Alcotest.fail "expected Executed after promotion")

let test_snapshot_reads_time_travel () =
  let s = make_server () in
  let commit_value txn time v =
    Server.begin_work s ~txn ~ts:time ~time;
    ignore (Server.execute s ~txn ~reads:[] ~writes:[ ("x", Value.Set (Value.Int v)) ]);
    ignore (Server.prepare s ~txn ~time ~proof_truth:true ~policy_versions:[]);
    ignore (Server.commit s ~txn ~time)
  in
  commit_value "t1" 10. 111;
  commit_value "t2" 20. 222;
  Alcotest.(check (option (of_pp Value.pp))) "opening value" (Some (Value.Int 100))
    (Server.read_asof s "x" ~ts:5.);
  Alcotest.(check (option (of_pp Value.pp))) "after t1" (Some (Value.Int 111))
    (Server.read_asof s "x" ~ts:15.);
  Alcotest.(check (option (of_pp Value.pp))) "after t2" (Some (Value.Int 222))
    (Server.read_asof s "x" ~ts:25.);
  Alcotest.(check (option (of_pp Value.pp))) "current agrees" (Some (Value.Int 222))
    (Server.get s "x")

let test_snapshot_reads_take_no_locks () =
  let s = make_server () in
  (* A writer holds X on x. *)
  Server.begin_work s ~txn:"w" ~ts:1. ~time:0.;
  ignore (Server.execute s ~txn:"w" ~reads:[] ~writes:[ ("x", Value.Set (Value.Int 7)) ]);
  (* A snapshot read of x neither blocks nor registers in the lock table,
     and sees the pre-write committed value. *)
  let reads = Server.execute_snapshot s ~reads:[ "x" ] ~ts:0.5 in
  Alcotest.(check bool) "sees committed value" true
    (List.assoc "x" reads = Some (Value.Int 100));
  Alcotest.(check int) "only the writer holds locks" 1
    (List.length (Lock_manager.holders (Server.locks s) ~key:"x"));
  Alcotest.check_raises "unhosted"
    (Invalid_argument "Server s1 does not host data item zz") (fun () ->
      ignore (Server.execute_snapshot s ~reads:[ "zz" ] ~ts:1.))

let test_vacuum_prunes_history () =
  let s = make_server () in
  let commit_value txn time v =
    Server.begin_work s ~txn ~ts:time ~time;
    ignore (Server.execute s ~txn ~reads:[] ~writes:[ ("x", Value.Set (Value.Int v)) ]);
    ignore (Server.prepare s ~txn ~time ~proof_truth:true ~policy_versions:[]);
    ignore (Server.commit s ~txn ~time)
  in
  commit_value "t1" 10. 1;
  commit_value "t2" 20. 2;
  commit_value "t3" 30. 3;
  (* Horizon 25: the opening version and t1's are reclaimable; t2's must
     survive because it serves reads exactly at the horizon. *)
  let reclaimed = Server.vacuum s ~before:25. in
  Alcotest.(check int) "two versions reclaimed" 2 reclaimed;
  Alcotest.(check (option (of_pp Value.pp))) "horizon read survives"
    (Some (Value.Int 2))
    (Server.read_asof s "x" ~ts:25.);
  Alcotest.(check (option (of_pp Value.pp))) "newest intact" (Some (Value.Int 3))
    (Server.read_asof s "x" ~ts:40.);
  Alcotest.(check int) "idempotent" 0 (Server.vacuum s ~before:25.)

let test_server_crash_recovery_in_doubt () =
  let s = make_server () in
  Server.begin_work s ~txn:"t" ~ts:1. ~time:0.;
  ignore (Server.execute s ~txn:"t" ~reads:[] ~writes:[ ("x", Value.Set (Value.Int 42)) ]);
  ignore (Server.prepare s ~txn:"t" ~time:1. ~proof_truth:true ~policy_versions:[ ("d", 2) ]);
  Server.crash s;
  let in_doubt = Server.recover s ~time:2. in
  Alcotest.(check (list string)) "in doubt" [ "t" ] in_doubt;
  (* The in-doubt transaction holds its write locks again. *)
  Alcotest.(check bool) "x locked" true
    (List.exists (fun (t, _) -> t = "t") (Lock_manager.holders (Server.locks s) ~key:"x"));
  (* Deciding commit after recovery applies the workspace. *)
  ignore (Server.commit s ~txn:"t" ~time:3.);
  Alcotest.(check bool) "recovered commit applied" true
    (Server.get s "x" = Some (Value.Int 42))

let test_server_crash_loses_unforced_tail () =
  let s = make_server () in
  Server.begin_work s ~txn:"t" ~ts:1. ~time:0.;
  ignore (Server.execute s ~txn:"t" ~reads:[] ~writes:[ ("x", Value.Set (Value.Int 1)) ]);
  ignore (Server.prepare s ~txn:"t" ~time:1. ~proof_truth:true ~policy_versions:[]);
  (* Unforced end record after the forced prepare is lost by the crash. *)
  Server.finish s ~txn:"t" ~time:2.;
  Server.crash s;
  Alcotest.(check bool) "tail lost: txn back in doubt" true
    (match Wal.recover_txn (Server.wal s) ~txn:"t" with
    | `Prepared _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Write-set integrity votes                                           *)
(* ------------------------------------------------------------------ *)

(* A server checks only the constraints a transaction's writes may change
   and answers the rest from the committed state, which it keeps up to
   date.  Whatever the constraints, the opening state and the history of
   commits, aborts and crashes, that must give exactly the names
   [Integrity.check_all] gives over every constraint. *)

type ending = Commit | Abort | Crash_then of bool  (* commit after recovery? *)

let integrity_keys = [ "a"; "b"; "c"; "d" ]

let gen_integrity_case =
  let open QCheck.Gen in
  let value =
    frequency
      [ (5, map (fun n -> Value.Int n) (int_range (-3) 10)); (1, return (Value.Text "t")) ]
  in
  let key = oneofl integrity_keys in
  let keys = list_size (1 -- 3) key in
  let constraint_ =
    oneof
      [
        map Integrity.non_negative (oneofl ("unhosted" :: integrity_keys));
        map3 (fun k lo w -> Integrity.range k ~lo ~hi:(lo + w)) key (int_range (-2) 6) (0 -- 6);
        map2 (fun ks bound -> Integrity.sum_at_most ks ~bound) keys (0 -- 25);
        map2 (fun ks total -> Integrity.sum_preserved ks ~total) keys (0 -- 25);
        map
          (fun k ->
            Integrity.make ~name:("even(" ^ k ^ ")") (fun lookup ->
                match lookup k with Some (Value.Int n) -> n mod 2 = 0 | _ -> false))
          key;
      ]
  in
  let update =
    frequency
      [ (2, map (fun v -> Value.Set v) value); (3, map (fun n -> Value.Add n) (int_range (-6) 6)) ]
  in
  let ending =
    frequency [ (3, return Commit); (1, return Abort); (1, map (fun c -> Crash_then c) bool) ]
  in
  let step = pair (list_size (0 -- 3) (pair key update)) ending in
  triple
    (list_repeat (List.length integrity_keys) value)
    (list_size (1 -- 8) constraint_)
    (list_size (1 -- 8) step)

let print_integrity_case (values, constraints, steps) =
  Printf.sprintf "items %s; constraints %s; steps %s"
    (String.concat "," (List.map Value.to_string values))
    (String.concat "," (List.map Integrity.name constraints))
    (String.concat "; "
       (List.map
          (fun (writes, ending) ->
            String.concat ","
              (List.map (fun (k, u) -> Format.asprintf "%s %a" k Value.pp_update u) writes)
            ^
            match ending with
            | Commit -> " commit"
            | Abort -> " abort"
            | Crash_then c -> if c then " crash+commit" else " crash+abort")
          steps))

let prop_integrity_write_set_equivalence =
  QCheck.Test.make ~name:"write-set integrity votes = checking every constraint"
    ~count:500
    (QCheck.make ~print:print_integrity_case gen_integrity_case)
    (fun (values, constraints, steps) ->
      let s =
        Server.create ~name:"s" ~constraints ~items:(List.combine integrity_keys values) ()
      in
      let agree ~txn what =
        let expected = Integrity.check_all constraints (Server.overlay s ~txn) in
        let got = Server.integrity_violations s ~txn in
        if got <> expected then
          QCheck.Test.fail_reportf "%s: got [%s], expected [%s]" what
            (String.concat "," got) (String.concat "," expected)
      in
      agree ~txn:"idle" "opening state";
      List.iteri
        (fun i (writes, ending) ->
          let txn = Printf.sprintf "t%d" i and time = float_of_int (10 * i) in
          Server.begin_work s ~txn ~ts:time ~time;
          (match Server.execute s ~txn ~reads:[] ~writes with
          | Server.Executed _ -> ()
          | Server.Blocked | Server.Die -> QCheck.Test.fail_report "lock conflict");
          agree ~txn "workspace";
          agree ~txn:"idle" "committed state beside a workspace";
          let expected_vote = Integrity.check_all constraints (Server.overlay s ~txn) = [] in
          let expected_writes =
            List.filter_map
              (fun k ->
                if List.mem_assoc k writes then
                  Option.map (fun v -> (k, v)) (Server.overlay s ~txn k)
                else None)
              (List.sort_uniq String.compare (List.map fst writes))
          in
          let vote = Server.prepare s ~txn ~time:(time +. 1.) ~proof_truth:true ~policy_versions:[] in
          if vote <> expected_vote then QCheck.Test.fail_report "prepare vote";
          (match List.rev (Wal.entries (Server.wal s)) with
          | { Wal.record = Wal.Prepared p; _ } :: _ ->
            if p.integrity_vote <> expected_vote then
              QCheck.Test.fail_report "WAL integrity vote";
            if List.sort compare p.writes <> expected_writes then
              QCheck.Test.fail_report "WAL writes"
          | _ -> QCheck.Test.fail_report "no Prepared record");
          let decide commit =
            ignore
              (if commit then Server.commit s ~txn ~time:(time +. 3.)
               else Server.abort s ~txn ~time:(time +. 3.))
          in
          (match ending with
          | Commit -> decide true
          | Abort -> decide false
          | Crash_then commit ->
            Server.crash s;
            if Server.recover s ~time:(time +. 2.) <> [ txn ] then
              QCheck.Test.fail_report "not in doubt after recovery";
            agree ~txn "recovered workspace";
            decide commit);
          agree ~txn:"idle" "after the decision")
        steps;
      (* A crash with nothing in doubt recovers the same verdicts. *)
      Server.crash s;
      ignore (Server.recover s ~time:1e6);
      agree ~txn:"idle" "after a clean recovery";
      true)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "store"
    [
      ("value", [ Alcotest.test_case "basics" `Quick test_value ]);
      ( "locks",
        [
          Alcotest.test_case "shared compatible" `Quick test_shared_compatible;
          Alcotest.test_case "wait-die" `Quick test_wait_die;
          Alcotest.test_case "release promotes" `Quick test_release_promotes;
          Alcotest.test_case "re-acquire idempotent" `Quick
            test_reacquire_idempotent;
          Alcotest.test_case "upgrade" `Quick test_upgrade;
          Alcotest.test_case "promotion re-applies wait-die" `Quick
            test_promotion_reapplies_wait_die;
          Alcotest.test_case "promotion repeats after a kill" `Quick
            test_promotion_repeats_after_kill;
          Alcotest.test_case "held_by and clear" `Quick test_held_by_and_clear;
          qc prop_wait_die_no_deadlock;
        ] );
      ( "integrity",
        [
          Alcotest.test_case "combinators" `Quick test_integrity_combinators;
          Alcotest.test_case "sums" `Quick test_integrity_sums;
          qc prop_integrity_write_set_equivalence;
        ] );
      ( "wal",
        [
          Alcotest.test_case "basics" `Quick test_wal_basics;
          Alcotest.test_case "recover states" `Quick test_wal_recover_states;
          Alcotest.test_case "serialize round trip" `Quick
            test_wal_serialize_round_trip;
          Alcotest.test_case "torn tail recovery" `Quick test_wal_torn_tail;
          Alcotest.test_case "truncate" `Quick test_wal_truncate;
          Alcotest.test_case "checkpoint truncation" `Quick
            test_wal_checkpoint_truncation;
          Alcotest.test_case "server checkpoint" `Quick test_server_checkpoint;
        ] );
      ( "server",
        [
          Alcotest.test_case "execute and overlay" `Quick
            test_server_execute_and_overlay;
          Alcotest.test_case "unhosted key" `Quick test_server_unhosted_key;
          Alcotest.test_case "integrity vote" `Quick test_server_integrity_vote;
          Alcotest.test_case "commit applies" `Quick test_server_commit_applies;
          Alcotest.test_case "abort drops" `Quick test_server_abort_drops;
          Alcotest.test_case "conflict and promotion" `Quick
            test_server_lock_conflict_and_promotion;
          Alcotest.test_case "snapshot time travel" `Quick
            test_snapshot_reads_time_travel;
          Alcotest.test_case "snapshot reads take no locks" `Quick
            test_snapshot_reads_take_no_locks;
          Alcotest.test_case "vacuum prunes history" `Quick
            test_vacuum_prunes_history;
          Alcotest.test_case "crash recovery in doubt" `Quick
            test_server_crash_recovery_in_doubt;
          Alcotest.test_case "crash loses unforced tail" `Quick
            test_server_crash_loses_unforced_tail;
        ] );
    ]
