(** A cloud data server: one partition of the application's data items,
    guarded by an authorization-policy replica, a lock manager, integrity
    constraints and a write-ahead log.

    The server exposes exactly the operations the paper's protocols need
    from a participant: execute a query (buffering writes in a per-
    transaction workspace), vote on integrity, force-log a prepare record
    with the (v_i, p_i) policy-version tuples, and apply or drop the
    workspace on decision.  Crash/recovery rebuilds in-doubt transactions
    from the forced log records. *)

type t

val create :
  name:string ->
  ?constraints:Integrity.t list ->
  items:(string * Value.t) list ->
  unit ->
  t

val name : t -> string
val replica : t -> Cloudtx_policy.Replica.t
val wal : t -> Wal.t
val locks : t -> Lock_manager.t

(** Committed value of a key. *)
val get : t -> string -> Value.t option

(** [read_asof t key ~ts] is the committed value as of simulated time
    [ts]: the newest version whose commit time is <= [ts] (the opening
    inventory counts as committed at time 0).  Powers snapshot reads:
    read-only queries served from a transaction-start snapshot without
    touching the lock table. *)
val read_asof : t -> string -> ts:float -> Value.t option

(** [execute_snapshot t ~reads ~ts] reads every key as of [ts]; no locks
    are taken and the call never blocks or dies. Unhosted keys raise
    [Invalid_argument]. *)
val execute_snapshot :
  t -> reads:string list -> ts:float -> (string * Value.t option) list

(** [vacuum t ~before] prunes version chains: snapshots older than
    [before] are no longer needed, so for each key only the newest version
    at or before that horizon (plus everything newer) is kept. Returns the
    number of versions reclaimed. *)
val vacuum : t -> before:float -> int

(** Does this server host the key? *)
val hosts : t -> string -> bool

val keys : t -> string list

(** {1 Transaction workspace} *)

(** [begin_work t ~txn ~ts] opens a workspace (idempotent). [ts] is the
    transaction start timestamp used for wait-die. *)
val begin_work : t -> txn:string -> ts:float -> time:float -> unit

type exec_result =
  | Executed of (string * Value.t option) list
      (** Reads (through the workspace overlay), in request order. *)
  | Blocked  (** Queued behind a lock; re-issue after some delay. *)
  | Die  (** Wait-die victim: the transaction must abort. *)

(** [execute t ~txn ~reads ~writes] acquires Shared locks on [reads] and
    Exclusive on write keys, then buffers [writes].  Updates compose in
    buffer order, so a transaction can debit and credit incrementally.
    Keys not hosted here raise [Invalid_argument]. *)
val execute :
  t ->
  txn:string ->
  reads:string list ->
  writes:(string * Value.update) list ->
  exec_result

(** Lookup that sees committed data overlaid with [txn]'s buffered
    writes — the hypothetical post-commit state. *)
val overlay : t -> txn:string -> Integrity.lookup

(** Violated-constraint names for [txn]'s hypothetical state (empty = the
    participant can vote YES), in the order the constraints were given.
    Only constraints that may read a key [txn] writes (and those built by
    {!Integrity.make}) are checked against the overlay; the rest report
    what the committed data says, which the server keeps up to date at
    every commit and recovery. *)
val integrity_violations : t -> txn:string -> string list

(** [prepare t ~txn ~time ~proof_truth ~policy_versions] computes the
    integrity vote and force-writes the [Prepared] record carrying vote,
    truth value and version tuples. Returns the integrity vote. *)
val prepare :
  t ->
  txn:string ->
  time:float ->
  proof_truth:bool ->
  policy_versions:(string * int) list ->
  bool

(** [commit t ~txn ~time] writes the decision record ([forced] defaults to
    true; presumed-commit participants pass false), applies the workspace,
    releases locks; returns the promotion outcome (grants to resume,
    wait-die kills to abort). *)
val commit : ?forced:bool -> t -> txn:string -> time:float -> Lock_manager.release

(** [abort t ~txn ~time] writes the decision record ([forced] defaults to
    true; presumed-abort participants pass false), drops the workspace,
    releases locks; returns the promotion outcome. Safe to call for
    transactions with no workspace here. *)
val abort : ?forced:bool -> t -> txn:string -> time:float -> Lock_manager.release

(** [finish t ~txn ~time] writes the non-forced [End_txn] record. *)
val finish : t -> txn:string -> time:float -> unit

(** Does [txn]'s workspace buffer any writes here? A participant with no
    writes can take the read-only fast path of 2PC: vote, release, skip
    the decision phase and all forced logging. *)
val is_read_only : t -> txn:string -> bool

(** [forget t ~txn ~time] ends a read-only participation: drops the
    workspace, releases locks, writes a non-forced [End_txn] record —
    no decision record, forced or otherwise. Returns the promotion
    outcome. *)
val forget : t -> txn:string -> time:float -> Lock_manager.release

(** [checkpoint t ~time] force-writes a checkpoint naming the transactions
    with open workspaces and reclaims the log prefix before it (their
    records survive). Returns the number of records reclaimed. *)
val checkpoint : t -> time:float -> int

(** {1 Crash and recovery} *)

(** [crash t] wipes volatile state (workspaces, lock table) and loses the
    unforced tail of the log, as a fail-stop crash would. Committed data
    survives (it is "on disk"). *)
val crash : t -> unit

(** [recover t ~time] replays the log: re-applies committed-but-unfinished
    transactions, drops aborted ones, and re-acquires exclusive locks for
    in-doubt (prepared, undecided) transactions. Returns the in-doubt
    transaction ids that must be resolved with the coordinator. *)
val recover : t -> time:float -> string list
