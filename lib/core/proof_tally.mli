(** Proof evaluations per in-flight transaction.

    The coordinator opens a transaction's tally at submit and closes it
    when the outcome is delivered; participants count each proof they
    evaluate for an open transaction.  The table therefore holds only the
    transactions in flight, however long the run. *)

type t

val create : unit -> t

(** [start t ~txn] opens [txn]'s tally at zero; an already open tally is
    kept as it is. *)
val start : t -> txn:string -> unit

(** [count t ~txn] adds one proof to [txn]'s tally, if it is open.  A
    proof evaluated after the outcome was delivered counts nowhere. *)
val count : t -> txn:string -> unit

(** [finish t ~txn] closes [txn]'s tally and returns it (0 if it was not
    open). *)
val finish : t -> txn:string -> int

(** Number of open tallies. *)
val in_flight : t -> int
