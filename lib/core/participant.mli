(** Server-side protocol node.

    Wraps a {!Cloudtx_store.Server} with the behaviour the paper requires
    of a 2PV/2PVC participant: execute queries into a workspace (evaluating
    execution-time proofs for the punctual-family schemes), answer
    Prepare-to-Validate and Prepare-to-Commit with proofs, policy versions
    and an integrity vote (force-logging the prepare record), install
    policy updates and re-evaluate, and apply the final decision.

    Blocked queries (lock conflicts) are parked and retried automatically
    when a releasing transaction promotes their locks, so the TM never
    polls. *)

module Transport = Cloudtx_sim.Transport

type t

(** [create ~transport ~server ~env ~domain_of ~proof_tally ()] registers
    the node under the server's name.  [domain_of] maps a data item to its
    administrative domain; [env] resolves credential issuers for proof
    evaluation; every proof evaluated for a transaction counts in
    [proof_tally] (shared cluster-wide, read by the coordinator);
    [variant] selects the decision-logging discipline (default
    {!Cloudtx_txn.Tpc.Basic}).

    [proof_cache] memoizes the inference step of proof evaluation (see
    {!Cloudtx_policy.Proof.evaluate}); truth values are unchanged, only
    repeated saturations are skipped. Default false.

    [ocsp_delay], when given, prices the paper's "online method" of
    checking credential status: each proof evaluation defers the
    participant's reply by one sampled delay per CA-issued credential it
    had to check (the responses still arrive in order per sender pair).
    Default: status checks are free, which is what Table I prices.

    [dedup] (default true) drops re-delivered wire messages on their
    transport sequence number, making delivery idempotent under message
    duplication and at-least-once decision retransmission.  The [false]
    escape hatch exists for chaos tests that need to demonstrate the
    failure mode dedup prevents.

    [inquiry_timeout] > 0 arms the termination protocol: a transaction
    silent for that long makes a prepared participant send [Inquiry] to
    its coordinator, and an unprepared one abort unilaterally.  Default 0
    (disabled — the paper's reliable-coordinator assumption). *)
val create :
  transport:Message.t Transport.t ->
  server:Cloudtx_store.Server.t ->
  env:Cloudtx_policy.Proof.env ->
  domain_of:(string -> string) ->
  proof_tally:Proof_tally.t ->
  ?variant:Cloudtx_txn.Tpc.variant ->
  ?ocsp_delay:(unit -> float) ->
  ?proof_cache:bool ->
  ?dedup:bool ->
  ?inquiry_timeout:float ->
  unit ->
  t

val name : t -> string
val server : t -> Cloudtx_store.Server.t

(** Queries executed here for [txn], oldest first. *)
val queries_of : t -> txn:string -> Cloudtx_txn.Query.t list

(** Fail-stop crash: wipes volatile state (workspaces, parked queries,
    lock table, unforced log tail) and stops receiving messages. *)
val crash : t -> unit

(** Restart after a crash: replays the WAL, re-locks in-doubt
    transactions' writes, re-seeds the protocol machine's decided-set and
    in-doubt votes, and sends an [Inquiry] to each in-doubt TM. *)
val recover : t -> unit
