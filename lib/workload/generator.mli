(** Random transaction generation over a {!Scenario}. *)

module Splitmix = Cloudtx_sim.Splitmix
module Transaction = Cloudtx_txn.Transaction

type params = {
  queries_per_txn : int;
  write_ratio : float;  (** Probability a query writes (0..1). *)
  zipf_s : float;  (** Key skew within a server; 0 = uniform. *)
  spread : [ `Round_robin | `Random ];
      (** Server choice per query: rotate (maximizing participants) or
          draw uniformly. *)
}

val default : params

(** [generate scenario rng params ~id] draws the subject, the servers and
    the keys. Written values stay nonnegative so integrity votes are YES
    unless the harness makes them fail deliberately.

    It only reads tables made in advance: the scenario's server, subject
    and key arrays (built by {!Scenario.retail}), and one Zipf table per
    (keys per server, [zipf_s]) shape, made the first time a query lands
    on a server of that shape and reused from then on.  So a call costs
    the same whether the cluster has 4 servers or 256. *)
val generate : Scenario.t -> Splitmix.t -> params -> id:string -> Transaction.t

(** [arrival_times rng ~rate ~horizon] — Poisson process arrival instants
    in [0, horizon), one per event, ascending. [rate] is arrivals per
    millisecond. *)
val arrival_times : Splitmix.t -> rate:float -> horizon:float -> float list
