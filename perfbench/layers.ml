(* Isolated layer drivers for the traced run.  Each feeds one layer's
   public functions the workload's own inputs (its generated key stream,
   its recorded journal) and times the calls with the monotonic clock. *)

module Transport = Cloudtx_sim.Transport
module Engine = Cloudtx_sim.Engine
module Journal = Cloudtx_obs.Journal
module Monitor = Cloudtx_obs.Monitor
module Codec = Cloudtx_protocol.Codec
module Codec_bin = Cloudtx_protocol.Codec_bin
module Tm = Cloudtx_protocol.Tm_machine
module Ps = Cloudtx_protocol.Ps_machine
module Journal_io = Cloudtx_core.Journal_io
module Audit = Cloudtx_core.Audit
module Certify = Cloudtx_core.Certify
module Blame = Cloudtx_core.Blame
module Health = Cloudtx_core.Health
module Proof = Cloudtx_policy.Proof
module Ca = Cloudtx_policy.Ca
module Lock_manager = Cloudtx_store.Lock_manager
module Wal = Cloudtx_store.Wal
module Value = Cloudtx_store.Value
module Query = Cloudtx_txn.Query
module Transaction = Cloudtx_txn.Transaction
module Campaign = Cloudtx_chaos.Campaign
module Plan = Cloudtx_chaos.Plan

let ok_or_fail what = function Ok x -> x | Error m -> failwith (what ^ ": " ^ m)

(* ------------------------------------------------------------------ *)
(* Journal replay: decode plus the four analyzers                        *)
(* ------------------------------------------------------------------ *)

type replay = {
  records : int;
  decode_ns : int;
  audit_ns : int;
  certify_ns : int;
  blame_ns : int;
  health_ns : int;
  audit : Audit.report;
  certify : Certify.report;
  blame_uncovered : int;
  blame_decode_errors : int;
  health_decode_errors : int;
}

let total_ns r = r.decode_ns + r.audit_ns + r.certify_ns + r.blame_ns + r.health_ns

(** Every frame of a binary journal with its decoded payload, in order. *)
let frames_with_payloads contents =
  let frames = (ok_or_fail "decode_binary" (Journal.decode_binary contents)).Journal.frames in
  List.map
    (fun (f : Journal.frame) ->
      (f, ok_or_fail "Codec_bin" (Codec_bin.payload_of_string f.Journal.payload)))
    frames

(** Health's feed arguments for every record: the envelope and the
    payload's canonical JSON text, prepared outside the timed region. *)
let health_inputs contents =
  List.map
    (fun (f, p) -> (f, Codec.to_string (Codec_bin.payload_to_json p)))
    (frames_with_payloads contents)

let replay ~spans ~parent ~health_in contents =
  let loaded, decode_ns =
    Span.timed spans ~parent "core.journal_io.of_contents" (fun () ->
        ok_or_fail "Journal_io" (Journal_io.of_contents contents))
  in
  let lines = loaded.Journal_io.lines in
  let audit, audit_ns =
    Span.timed spans ~parent "core.audit.run" (fun () ->
        ok_or_fail "Audit" (Audit.run ~lines))
  in
  let certify, certify_ns =
    Span.timed spans ~parent "core.certify.run" (fun () ->
        ok_or_fail "Certify" (Certify.run ~lines))
  in
  let blame, blame_ns =
    Span.timed spans ~parent "core.blame.of_lines" (fun () ->
        ok_or_fail "Blame" (Blame.of_lines lines))
  in
  let inputs = Lazy.force health_in in
  let health, health_ns =
    Span.timed spans ~parent "core.health.feed" (fun () ->
        let h = Health.create (Monitor.create ()) in
        List.iter
          (fun ((f : Journal.frame), payload) ->
            Health.feed h ~seq:f.Journal.seq ~time_ms:f.Journal.time_ms
              ~node:f.Journal.node ~dir:f.Journal.dir ~payload)
          inputs;
        h)
  in
  {
    records = List.length lines - 1;
    decode_ns;
    audit_ns;
    certify_ns;
    blame_ns;
    health_ns;
    audit;
    certify;
    blame_uncovered = List.length (Blame.uncovered blame);
    blame_decode_errors = Blame.decode_errors blame;
    health_decode_errors = Health.decode_errors health;
  }

(* ------------------------------------------------------------------ *)
(* Protocol machines re-driven from the recorded inputs (as Audit does)  *)
(* ------------------------------------------------------------------ *)

type node = Tm_node of Tm.t | Ps_node of Ps.t

(** Creates machines on create records and feeds them every recorded
    input; actions are produced and dropped.  Returns machine steps. *)
let redrive records =
  let nodes = Hashtbl.create 64 in
  let steps = ref 0 in
  List.iter
    (fun ((f : Journal.frame), (p : Codec_bin.payload)) ->
      let node = f.Journal.node in
      match p with
      | Codec_bin.Create_tm { config; txn; submitted_at } ->
        let m = Tm.create config txn ~submitted_at in
        ignore (Tm.start m);
        Hashtbl.replace nodes node (Tm_node m)
      | Codec_bin.Create_ps { variant; inquiry_timeout } ->
        let m = Ps.create ~name:node ~variant ~inquiry_timeout () in
        Hashtbl.replace nodes node (Ps_node m)
      | Codec_bin.Tm_input i -> (
        incr steps;
        match Hashtbl.find nodes node with
        | Tm_node m -> ignore (Tm.handle m i)
        | Ps_node _ -> failwith "redrive: TM input on a participant")
      | Codec_bin.Ps_input i -> (
        incr steps;
        match Hashtbl.find nodes node with
        | Ps_node m -> ignore (Ps.handle m i)
        | Tm_node _ -> failwith "redrive: PS input on a TM")
      | Codec_bin.Tm_action _ | Codec_bin.Ps_action _ -> ())
    records;
  !steps

(** Re-encodes every recorded payload into binary frames; returns bytes. *)
let encode records =
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun ((f : Journal.frame), p) ->
      Journal.encode_frame buf ~seq:f.Journal.seq ~time_ms:f.Journal.time_ms
        ~node:f.Journal.node ~dir:f.Journal.dir
        ~emit:(fun w -> Codec_bin.emit_payload w p))
    records;
  Buffer.length buf

(* ------------------------------------------------------------------ *)
(* Engine and transport with null handlers                               *)
(* ------------------------------------------------------------------ *)

(** Ping-pong between [pairs] node pairs until [messages] have been sent;
    returns the events executed. *)
let null_transport ~messages ~pairs =
  let t = Transport.create ~seed:1L ~label_of:(fun () -> "m") () in
  let sent = ref 0 in
  for p = 0 to pairs - 1 do
    let a = Printf.sprintf "a%d" p and b = Printf.sprintf "b%d" p in
    let bounce ~self ~src () =
      if !sent < messages then begin
        incr sent;
        Transport.send t ~src:self ~dst:src ()
      end
    in
    Transport.register t a (fun ~src () -> bounce ~self:a ~src ());
    Transport.register t b (fun ~src () -> bounce ~self:b ~src ())
  done;
  for p = 0 to pairs - 1 do
    if !sent < messages then begin
      incr sent;
      Transport.send t ~src:(Printf.sprintf "a%d" p) ~dst:(Printf.sprintf "b%d" p) ()
    end
  done;
  ignore (Transport.run t);
  Engine.steps (Transport.engine t)

(* ------------------------------------------------------------------ *)
(* Policy, locks and WAL fed the workload's key stream                   *)
(* ------------------------------------------------------------------ *)

let queries txns =
  List.concat_map
    (fun (t : Transaction.t) -> List.map (fun q -> (t, q)) t.Transaction.queries)
    txns

(** One [Proof.evaluate] per query; returns evaluations and TRUE count. *)
let proofs ~policy ~(ca : Ca.t) txns =
  let env =
    {
      Proof.find_ca = (fun n -> if String.equal n (Ca.name ca) then Some ca else None);
      trusted_server = (fun _ -> false);
      context = (fun () -> []);
    }
  in
  let n = ref 0 and granted = ref 0 in
  List.iter
    (fun ((t : Transaction.t), (q : Query.t)) ->
      incr n;
      let p =
        Proof.evaluate ~query_id:q.Query.id ~server:q.Query.server ~policy
          ~creds:t.Transaction.credentials ~env ~at:0.
          {
            Proof.subject = t.Transaction.subject;
            action = Query.action q;
            items = Query.touches q;
          }
      in
      if p.Proof.result then incr granted)
    (queries txns);
  (!n, !granted)

(** Per-server lock tables: each transaction acquires its keys (shared
    reads, exclusive writes) in timestamp order, then releases them all.
    Returns acquisitions. *)
let locks txns =
  let tables = Hashtbl.create 64 in
  let table s =
    match Hashtbl.find_opt tables s with
    | Some t -> t
    | None ->
      let t = Lock_manager.create () in
      Hashtbl.add tables s t;
      t
  in
  let n = ref 0 in
  List.iteri
    (fun i (t : Transaction.t) ->
      let txn = t.Transaction.id and ts = float_of_int i in
      List.iter
        (fun (q : Query.t) ->
          let lm = table q.Query.server in
          let acquire mode key =
            incr n;
            ignore (Lock_manager.acquire lm ~txn ~ts ~key mode)
          in
          List.iter (acquire Lock_manager.Shared) (Query.read_set q);
          List.iter (acquire Lock_manager.Exclusive) (Query.write_set q))
        t.Transaction.queries;
      List.iter
        (fun (q : Query.t) -> ignore (Lock_manager.release_all (table q.Query.server) ~txn))
        t.Transaction.queries)
    txns;
  !n

(** Per-server logs: a forced [Prepared] record per query carrying its
    writes, then a forced [Decision].  Returns appends. *)
let wal txns =
  let logs = Hashtbl.create 64 in
  let log s =
    match Hashtbl.find_opt logs s with
    | Some l -> l
    | None ->
      let l = Wal.create () in
      Hashtbl.add logs s l;
      l
  in
  let n = ref 0 in
  List.iteri
    (fun i (t : Transaction.t) ->
      let txn = t.Transaction.id and time = float_of_int i in
      List.iter
        (fun (q : Query.t) ->
          let l = log q.Query.server in
          let writes = List.map (fun k -> (k, Value.Int i)) (Query.write_set q) in
          ignore
            (Wal.append l ~time ~forced:true
               (Wal.Prepared
                  {
                    txn;
                    writes;
                    integrity_vote = true;
                    proof_truth = true;
                    policy_versions = [ ("retail", 1) ];
                  }));
          ignore (Wal.append l ~time ~forced:true (Wal.Decision { txn; commit = true }));
          n := !n + 2)
        t.Transaction.queries)
    txns;
  !n

(* ------------------------------------------------------------------ *)
(* Chaos: seeded gray-failure plans over every cell                      *)
(* ------------------------------------------------------------------ *)

type chaos = {
  runs : int;
  violations : int;
  run_ms : float array;
  plan_random_ns : int;
  plans : int;
  wall_ns : int;
}

let chaos ~spans ~parent ~base_seed ~plans =
  let policy = Cloudtx_protocol.Timeout_policy.adaptive () in
  let resilience = Cloudtx_core.Resilience.config () in
  let run_ms = ref [] and violations = ref 0 and plan_ns = ref 0 in
  let t0 = Span.now_ns () in
  for k = 0 to plans - 1 do
    let plan, dt =
      Span.timed spans ~parent "chaos.plan.random" (fun () ->
          Plan.random ~seed:(Int64.add base_seed (Int64.of_int k)) ())
    in
    plan_ns := !plan_ns + dt;
    List.iter
      (fun cell ->
        let r, dt =
          Span.timed spans ~parent "chaos.campaign.run_plan" (fun () ->
              Campaign.run_plan ~certify:true ~policy ~resilience cell plan)
        in
        (match r with Ok () -> () | Error _ -> incr violations);
        run_ms := (float_of_int dt *. 1e-6) :: !run_ms)
      Campaign.all_cells
  done;
  {
    runs = List.length !run_ms;
    violations = !violations;
    run_ms = Array.of_list !run_ms;
    plan_random_ns = !plan_ns;
    plans;
    wall_ns = Span.now_ns () - t0;
  }
