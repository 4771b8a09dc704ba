(* Thin driver binding {!Cloudtx_protocol.Ps_machine} to a simulated
   server: store, lock manager, policy replica, WAL and the transport's
   observability sinks.  All protocol decisions live in the machine; this
   file only interprets its actions and feeds local results back. *)

module Transport = Cloudtx_sim.Transport
module Counter = Cloudtx_metrics.Counter
module Server = Cloudtx_store.Server
module Query = Cloudtx_txn.Query
module Tpc = Cloudtx_txn.Tpc
module Proof = Cloudtx_policy.Proof
module Policy = Cloudtx_policy.Policy
module Replica = Cloudtx_policy.Replica
module Credential = Cloudtx_policy.Credential
module Lock_manager = Cloudtx_store.Lock_manager
module Wal = Cloudtx_store.Wal
module Tracer = Cloudtx_obs.Tracer
module Registry = Cloudtx_obs.Registry
module Journal = Cloudtx_obs.Journal
module Ps = Cloudtx_protocol.Ps_machine
module Codec = Cloudtx_protocol.Codec
module Codec_bin = Cloudtx_protocol.Codec_bin

let log_src =
  Logs.Src.create "cloudtx.participant" ~doc:"Data-server protocol node"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* An open [lock.wait] span for a parked query. *)
type wait = { w_span : int; w_blocked_at : float }

type t = {
  transport : Message.t Transport.t;
  server : Server.t;
  env : Proof.env;
  domain_of : string -> string;
  machine : Ps.t;
  variant : Tpc.variant;
  mutable journaled : bool;
      (* create record emitted?  Participants are built before the CLI
         enables the journal, so the record is emitted lazily at the
         first journaled step (and again after a crash reset). *)
  ocsp_delay : (unit -> float) option;
  proof_cache : (string, string list) Hashtbl.t option;
  dedup : bool;
  seen : (int, unit) Hashtbl.t;
      (* wire seqs already delivered; duplicated or retransmitted copies
         are dropped here, before journaling, so journals stay replayable.
         Kept across crashes: the machine's [expected]-count NACK covers
         the state actually lost. *)
  inquiry_timeout : float;
  waits : (string, wait) Hashtbl.t; (* txn -> open lock.wait *)
  proof_tally : Proof_tally.t;
  mutable releases : (string option * Lock_manager.release) list;
      (* lock releases queued during action interpretation, FIFO; drained
         only after the current input is fully interpreted so decision
         acks stay ahead of retried queries on the wire *)
}

let name t = Server.name t.server
let server t = t.server
let queries_of t ~txn = Ps.queries_of t.machine ~txn
let now t = Transport.now t.transport
let send t ~dst msg = Transport.send t.transport ~src:(name t) ~dst msg
let mark t label = Transport.mark t.transport ~node:(name t) label
let tracer t = Transport.tracer t.transport
let registry t = Transport.registry t.transport

(* Simulated cost of the online credential-status checks one proof
   evaluation performs: one OCSP round-trip per CA-issued credential. *)
let status_check_delay t credentials =
  match t.ocsp_delay with
  | None -> 0.
  | Some sample ->
    List.fold_left
      (fun acc (c : Credential.t) ->
        match t.env.Proof.find_ca c.Credential.issuer with
        | Some _ -> acc +. sample ()
        | None -> acc)
      0. credentials

(* The administrative domain a query belongs to: the domain of its items,
   which must agree (the paper scopes each policy to one domain). *)
let domain_of_query t (q : Query.t) =
  match Query.items q with
  | [] -> invalid_arg (Printf.sprintf "query %s touches no data items" q.Query.id)
  | first :: rest ->
    let domain = t.domain_of first in
    List.iter
      (fun item ->
        if not (String.equal (t.domain_of item) domain) then
          invalid_arg
            (Printf.sprintf "query %s spans administrative domains" q.Query.id))
      rest;
    domain

let policy_for t domain =
  match Replica.get (Server.replica t.server) ~domain with
  | Some p -> p
  | None ->
    invalid_arg
      (Printf.sprintf "server %s has no policy replica for domain %s" (name t)
         domain)

let evaluate_proof_fn t ~txn ~subject ~credentials (q : Query.t) =
  let domain = domain_of_query t q in
  let policy = policy_for t domain in
  let counters = Transport.counters t.transport in
  Counter.incr counters "proofs";
  Proof_tally.count t.proof_tally ~txn;
  if Transport.marking t.transport then
    mark t (Printf.sprintf "proof_eval:%s:%s" txn q.Query.id);
  let tr = tracer t in
  let span =
    if Tracer.enabled tr then begin
      let span = Tracer.start tr ~track:(name t) "proof_eval" in
      Tracer.set_attr tr span "txn" txn;
      Tracer.set_attr tr span "query" q.Query.id;
      span
    end
    else Tracer.no_span
  in
  let request =
    { Proof.subject; action = Query.action q; items = Query.items q }
  in
  let proof =
    Proof.evaluate ?cache:t.proof_cache ~query_id:q.Query.id ~server:(name t)
      ~policy ~creds:credentials ~env:t.env ~at:(now t) request
  in
  if Tracer.enabled tr then
    Tracer.finish tr
      ~attrs:
        [
          ("result", if proof.Proof.result then "true" else "false");
          ("version", string_of_int proof.Proof.policy_version);
        ]
      span;
  let reg = registry t in
  if Registry.enabled reg then
    Registry.incr reg "proofs_total" [ ("server", name t) ];
  proof

(* Distinct policies currently in force for [queries]. *)
let policies_used t queries =
  let policies = Hashtbl.create 4 in
  List.iter
    (fun (q : Query.t) ->
      let domain = domain_of_query t q in
      Hashtbl.replace policies domain (policy_for t domain))
    queries;
  Hashtbl.fold (fun _ p acc -> p :: acc) policies []
  |> List.sort (fun (a : Policy.t) b ->
         String.compare a.Policy.domain b.Policy.domain)

(* Satellite of the staleness story: how far this server's replica trails
   the policy master, per domain.  The master's version is published into
   the registry by {!Cluster.publish}; recompute the distance whenever we
   install (the gauge reads 0 until the first publish). *)
let note_staleness t (policies : Policy.t list) =
  let reg = registry t in
  if Registry.enabled reg then
    List.iter
      (fun (p : Policy.t) ->
        let domain = p.Policy.domain in
        match
          Registry.gauge reg "policy_master_version" [ ("domain", domain) ]
        with
        | None -> ()
        | Some master ->
          let held =
            match Replica.get (Server.replica t.server) ~domain with
            | Some q -> float_of_int q.Policy.version
            | None -> 0.
          in
          Registry.set_gauge reg "policy_staleness"
            [ ("server", name t); ("domain", domain) ]
            (Float.max 0. (master -. held)))
      policies

let settle_wait t ~txn ~outcome ~killed_by =
  match Hashtbl.find_opt t.waits txn with
  | None -> ()
  | Some w ->
    Hashtbl.remove t.waits txn;
    let tr = tracer t in
    if Tracer.enabled tr && w.w_span <> Tracer.no_span then begin
      let attrs = [ ("outcome", outcome) ] in
      let attrs =
        match killed_by with
        | None -> attrs
        | Some killer ->
          (* The link target: the killer TM's [txn] span carries
             [txn=<killer>] — join on this attribute. *)
          ("killed_by", killer) :: attrs
      in
      Tracer.finish tr ~attrs w.w_span
    end;
    let reg = registry t in
    if Registry.enabled reg then
      Registry.observe reg "lock_wait_ms"
        [ ("server", name t) ]
        (now t -. w.w_blocked_at)

(* Flight recorder: same input-then-actions-then-perform ordering as
   {!Manager.dispatch}, so each input's action records are contiguous in
   the journal and replay is a per-node FIFO. *)
let rec dispatch t input =
  let j = Transport.journal t.transport in
  if Journal.enabled j then begin
    if not t.journaled then begin
      t.journaled <- true;
      match Journal.format j with
      | Journal.Jsonl ->
        Journal.record j ~node:(name t) ~dir:"create"
          ~payload:
            (Codec.to_string
               (Cloudtx_policy.Json.Obj
                  [
                    ("kind", Cloudtx_policy.Json.String "ps");
                    ("variant", Codec.variant_to_json t.variant);
                    ("inquiry_timeout", Cloudtx_policy.Json.Float t.inquiry_timeout);
                  ]))
      | Journal.Binary ->
        Journal.record_frame j ~node:(name t) ~dir:"create" ~emit:(fun b ->
            Codec_bin.emit_create_ps b ~variant:t.variant
              ~inquiry_timeout:t.inquiry_timeout)
    end;
    (match Journal.format j with
    | Journal.Jsonl ->
      Journal.record j ~node:(name t) ~dir:"input"
        ~payload:(Codec.to_string (Codec.ps_input_to_json input))
    | Journal.Binary ->
      Journal.record_frame j ~node:(name t) ~dir:"input" ~emit:(fun b ->
          Codec_bin.emit_ps_input_payload b input));
    let actions = Ps.handle t.machine input in
    (match Journal.format j with
    | Journal.Jsonl ->
      List.iter
        (fun a ->
          Journal.record j ~node:(name t) ~dir:"action"
            ~payload:(Codec.to_string (Codec.ps_action_to_json a)))
        actions
    | Journal.Binary ->
      List.iter
        (fun a ->
          Journal.record_frame j ~node:(name t) ~dir:"action" ~emit:(fun b ->
              Codec_bin.emit_ps_action_payload b a))
        actions);
    List.iter (perform t) actions
  end
  else List.iter (perform t) (Ps.handle t.machine input)

and perform t (a : Ps.action) =
  match a with
  | Ps.Send { dst; msg; after_proofs; credentials } ->
    let delay = float_of_int after_proofs *. status_check_delay t credentials in
    if delay <= 0. then send t ~dst msg
    else Transport.at t.transport ~delay (fun () -> send t ~dst msg)
  | Ps.Begin_work { txn; ts } ->
    Server.begin_work t.server ~txn ~ts ~time:(now t)
  | Ps.Exec { txn; ts; query; evaluate; reply_to; snapshot } ->
    let result =
      if snapshot then
        (* MVCC fast path: read the committed state as of the transaction's
           start, no locks, never blocks. *)
        Ps.Executed (Server.execute_snapshot t.server ~reads:query.Query.reads ~ts)
      else
        match
          Server.execute t.server ~txn ~reads:query.Query.reads
            ~writes:query.Query.writes
        with
        | Server.Executed reads -> Ps.Executed reads
        | Server.Blocked -> Ps.Blocked
        | Server.Die -> Ps.Die
    in
    dispatch t (Ps.Exec_result { txn; query; evaluate; reply_to; result })
  | Ps.Eval { txn; subject; credentials; queries; with_proofs; with_policies; cont }
    ->
    let proofs =
      if with_proofs then
        List.map (evaluate_proof_fn t ~txn ~subject ~credentials) queries
      else []
    in
    let policies = if with_policies then policies_used t queries else [] in
    dispatch t (Ps.Evaluated { txn; proofs; policies; cont })
  | Ps.Check_read_only { txn; reply_to; round } ->
    let read_only = Server.is_read_only t.server ~txn in
    let integrity_ok =
      read_only && Server.integrity_violations t.server ~txn = []
    in
    dispatch t (Ps.Read_only_result { txn; reply_to; round; read_only; integrity_ok })
  | Ps.Prepare { txn; proof_truth; policy_versions } ->
    let vote =
      Server.prepare t.server ~txn ~time:(now t) ~proof_truth ~policy_versions
    in
    dispatch t (Ps.Prepared { txn; vote })
  | Ps.Apply { txn; commit; forced; writes = _ } ->
    (* [writes] is the machine's version stamp for the journal; the store
       derives the same installs from the workspace it already holds. *)
    let release =
      if commit then Server.commit ~forced t.server ~txn ~time:(now t)
      else Server.abort ~forced t.server ~txn ~time:(now t)
    in
    Server.finish t.server ~txn ~time:(now t);
    t.releases <- t.releases @ [ (Some txn, release) ]
  | Ps.Forget { txn } ->
    let release = Server.forget t.server ~txn ~time:(now t) in
    t.releases <- t.releases @ [ (Some txn, release) ]
  | Ps.Install { policies; announce } ->
    List.iter
      (fun (p : Policy.t) ->
        match Replica.install (Server.replica t.server) p with
        | `Installed ->
          if announce then
            mark t
              (Printf.sprintf "policy_installed:%s:v%d" p.Policy.domain
                 p.Policy.version)
        | `Stale -> ())
      policies;
    note_staleness t policies
  | Ps.Wait_open { txn; query_id } ->
    let tr = tracer t in
    let span =
      if Tracer.enabled tr then begin
        let span = Tracer.start tr ~track:(name t) "lock.wait" in
        Tracer.set_attr tr span "txn" txn;
        Tracer.set_attr tr span "query" query_id;
        span
      end
      else Tracer.no_span
    in
    Hashtbl.replace t.waits txn { w_span = span; w_blocked_at = now t }
  | Ps.Wait_close { txn; outcome; killed_by } ->
    settle_wait t ~txn ~outcome ~killed_by
  | Ps.Arm_inquiry { txn; epoch; delay } ->
    Transport.at t.transport ~delay (fun () ->
        if not (Transport.crashed t.transport (name t)) then begin
          dispatch t (Ps.Inquiry_fired { txn; epoch });
          drain_releases t
        end)
  | Ps.Mark label -> mark t label

(* Feed queued lock releases back as machine inputs.  A retried execute
   cannot release locks, but draining in a loop keeps this robust. *)
and drain_releases t =
  let rec loop () =
    match t.releases with
    | [] -> ()
    | (by, release) :: rest ->
      t.releases <- rest;
      dispatch t (Ps.Release { by; release });
      loop ()
  in
  loop ()

let handle t ~src msg =
  Log.debug (fun m -> m "%s: %s from %s" (name t) (Message.label msg) src);
  dispatch t (Ps.Deliver { src; msg });
  drain_releases t

let create ~transport ~server ~env ~domain_of ~proof_tally ?(variant = Tpc.Basic)
    ?ocsp_delay ?(proof_cache = false) ?(dedup = true) ?(inquiry_timeout = 0.)
    () =
  let t =
    {
      transport;
      server;
      env;
      domain_of;
      machine =
        Ps.create ~name:(Server.name server) ~variant ~inquiry_timeout ();
      variant;
      journaled = false;
      ocsp_delay;
      proof_cache = (if proof_cache then Some (Hashtbl.create 64) else None);
      dedup;
      seen = Hashtbl.create 64;
      inquiry_timeout;
      waits = Hashtbl.create 8;
      proof_tally;
      releases = [];
    }
  in
  Transport.register_seq transport (Server.name server) (fun ~src ~seq msg ->
      if t.dedup && Hashtbl.mem t.seen seq then begin
        Counter.incr (Transport.counters transport) "dedup_dropped";
        if Transport.marking transport then mark t ("dedup:" ^ Message.label msg)
      end
      else begin
        if t.dedup then Hashtbl.replace t.seen seq ();
        handle t ~src msg
      end);
  (* Store-layer hooks read the transport's tracer/registry dynamically:
     the CLI enables observability after the cluster is built, and the
     enabled checks keep the default path allocation-free. *)
  let node = Server.name server in
  Wal.set_observer (Server.wal server)
    (Some
       (fun ~time:_ ~forced ~tag ->
         let tr = Transport.tracer transport in
         if forced && Tracer.enabled tr then
           Tracer.instant tr ~track:node ~attrs:[ ("record", tag) ] "wal.force";
         let reg = Transport.registry transport in
         if Registry.enabled reg then begin
           Registry.incr reg "wal_append_total"
             [ ("server", node); ("record", tag) ];
           if forced then Registry.incr reg "log_force_total" [ ("site", node) ]
         end));
  Lock_manager.set_observer
    (Server.locks server)
    (Some
       {
         Lock_manager.on_acquire =
           (fun ~txn:_ ~key:_ ~mode:_ ~outcome ->
             let reg = Transport.registry transport in
             if Registry.enabled reg then
               Registry.incr reg "lock_acquire_total"
                 [
                   ("server", node);
                   ( "outcome",
                     match outcome with
                     | Lock_manager.Granted -> "granted"
                     | Lock_manager.Queued -> "queued"
                     | Lock_manager.Die -> "die" );
                 ]);
         on_promoted =
           (fun ~txn:_ ~key:_ ~mode:_ ->
             let reg = Transport.registry transport in
             if Registry.enabled reg then
               Registry.incr reg "lock_promoted_total" [ ("server", node) ]);
         on_killed =
           (fun ~txn:_ ~key:_ ->
             let reg = Transport.registry transport in
             if Registry.enabled reg then
               Registry.incr reg "lock_killed_total" [ ("server", node) ]);
       });
  t

let crash t =
  Ps.reset t.machine;
  (* A repeated create record tells the auditor to restart this node's
     replay machine from scratch, mirroring the reset. *)
  t.journaled <- false;
  Hashtbl.reset t.waits;
  t.releases <- [];
  Server.crash t.server;
  Transport.crash t.transport (name t);
  mark t "crash"

let recover t =
  Transport.recover t.transport (name t);
  let in_doubt = Server.recover t.server ~time:(now t) in
  mark t "recover";
  (* Re-seed the fresh machine's protocol memory from the recovered log:
     decided transactions (so a retransmitted [Decision] is re-acked, not
     re-applied) and the in-doubt ones with the integrity vote their
     force-logged [Prepared] record carries. *)
  let entries = Wal.entries (Server.wal t.server) in
  let vote_of txn =
    List.fold_left
      (fun acc (e : Wal.entry) ->
        match e.Wal.record with
        | Wal.Prepared { txn = p; integrity_vote; _ } when String.equal p txn
          ->
          integrity_vote
        | _ -> acc)
      false entries
  in
  let writes_of txn =
    List.fold_left
      (fun acc (e : Wal.entry) ->
        match e.Wal.record with
        | Wal.Prepared { txn = p; writes; _ } when String.equal p txn ->
          List.map fst writes
        | _ -> acc)
      [] entries
  in
  let decided =
    List.fold_left
      (fun acc (e : Wal.entry) ->
        match e.Wal.record with
        | Wal.Decision { txn; _ } when not (List.mem txn acc) -> txn :: acc
        | _ -> acc)
      [] entries
    |> List.rev
  in
  dispatch t
    (Ps.Recovered
       {
         decided;
         in_doubt =
           List.map (fun txn -> (txn, vote_of txn, writes_of txn)) in_doubt;
       });
  drain_releases t
