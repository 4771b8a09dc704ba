(** Integrity constraints — the "data consistency" half of a safe
    transaction.

    A participant's YES/NO vote in 2PC (and in 2PVC's voting phase) reports
    whether applying the transaction's buffered writes would preserve these
    constraints.  Constraints read through a lookup function so they can be
    checked against a hypothetical state (committed data overlaid with a
    workspace) without mutating anything.

    Every constraint except one built by {!make} knows the keys it reads,
    so a server can tell which constraints a transaction's writes can
    change and leave the others to what the committed state says
    ({!Server.integrity_violations}). *)

type lookup = string -> Value.t option

type t

(** [make ~name check] wraps an arbitrary predicate.  Its reads are
    unknown, so it is checked on every vote. *)
val make : name:string -> (lookup -> bool) -> t

(** [non_negative key] — the integer at [key] must be >= 0 (missing or
    non-integer values violate it). *)
val non_negative : string -> t

(** [range key ~lo ~hi] — integer at [key] within [lo, hi] inclusive. *)
val range : string -> lo:int -> hi:int -> t

(** [sum_at_most keys ~bound] — the integers at [keys] must exist and sum
    to at most [bound]. *)
val sum_at_most : string list -> bound:int -> t

(** [sum_preserved keys ~total] — the integers at [keys] sum exactly to
    [total]; the classic funds-conservation constraint. *)
val sum_preserved : string list -> total:int -> t

val name : t -> string

(** [check t lookup] — does the state behind [lookup] satisfy [t]? *)
val check : t -> lookup -> bool

(** [may_read t written] — does [t] read a key satisfying [written]?
    Only then can its verdict change when just those keys change.  True
    for {!make}, whose reads are unknown. *)
val may_read : t -> (string -> bool) -> bool

(** [check_all constraints lookup] is the names of violated constraints
    (empty = integrity holds). *)
val check_all : t list -> lookup -> string list
