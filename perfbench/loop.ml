(* The benchmark's closed-loop driver over [Manager.submit ?ts].

   [clients] logical clients each keep one logical transaction in flight
   and draw the next from the workload's generator as soon as the
   previous one reaches its final outcome.  A wait-die victim is
   resubmitted under a fresh attempt id with its original start
   timestamp (wait-die aging), up to [max_restarts] times; a restart is
   not a new logical transaction.  A logical transaction still
   uncommitted at the cap, or aborted for any other reason, is failed.
   So is one the engine never decides: when the event queue runs dry
   with transactions still in flight, they are stuck (a distributed
   deadlock among lock waiters) and the batch ends there.

   The engine is stepped by hand so that the traced variant can time
   every [Engine.step]; both variants stop as soon as the last logical
   transaction is decided (background churn may still be queued). *)

module Manager = Cloudtx_core.Manager
module Outcome = Cloudtx_core.Outcome
module Cluster = Cloudtx_core.Cluster
module Transport = Cloudtx_sim.Transport
module Engine = Cloudtx_sim.Engine
module Counter = Cloudtx_metrics.Counter
module Trace = Cloudtx_sim.Trace
module Transaction = Cloudtx_txn.Transaction

type result = {
  n : int;  (** Logical transactions attempted. *)
  committed : int;
  failed : int;  (** Aborted or stuck. *)
  stuck : string list;  (** Attempts never decided, see above. *)
  restarts : int;
  proofs : int;  (** Sum of [Outcome.proofs_evaluated] over all attempts. *)
  commit_rounds : int;
  messages : int;  (** Transport ["messages"] counter delta. *)
  events : int;  (** [Engine.step]s executed. *)
  trace_entries : int;  (** [Sim.Trace] length at the end. *)
  latencies : float array;
      (** Per logical transaction, simulated ms from its first submit to
          its final outcome, restarts included; [infinity] when stuck. *)
  alloc_words : float;  (** [Gc.minor_words] allocated by the batch. *)
  digest : string;  (** Hex digest of every final outcome, in order. *)
  wall_s : float;  (** Wall time from the first submit to the last decision. *)
}

(** What the traced variant measures besides its spans. *)
type probe = {
  spans : Span.t;
  parent : int;  (** The enclosing span. *)
  mutable gen_ns : int;
  mutable gens : int;
  mutable submit_ns : int;
  mutable submits : int;
  mutable step_self_ns : int list;  (** One per step, newest first. *)
  mutable pending_peak : int;
}

let probe spans ~parent =
  {
    spans;
    parent;
    gen_ns = 0;
    gens = 0;
    submit_ns = 0;
    submits = 0;
    step_self_ns = [];
    pending_peak = 0;
  }

type logical = {
  txn : Transaction.t;
  mutable attempt : int;
  mutable first_submit : float;
  mutable l_proofs : int;
  mutable l_rounds : int;
}

let run ?probe ~config ~clients ~n ~max_restarts
    ~(generate : i:int -> Transaction.t) cluster =
  let transport = Cluster.transport cluster in
  let engine = Transport.engine transport in
  let counters = Transport.counters transport in
  let messages0 = Counter.get counters "messages" in
  let steps0 = Engine.steps engine in
  let issued = ref 0 and finished = ref 0 and committed = ref 0 in
  let failed = ref 0 and restarts = ref 0 and proofs = ref 0 and rounds = ref 0 in
  let latencies = Array.make n 0. in
  let in_flight = Hashtbl.create 64 in
  let log = Buffer.create (64 * n) in
  (* Traced calls nest inside the engine step whose callback made them;
     [nested] is what they took, subtracted from the step's self time. *)
  let cur = ref (match probe with Some p -> p.parent | None -> -1) in
  let nested = ref 0 in
  let rec submit lg ts =
    let txn =
      if lg.attempt = 0 then lg.txn
      else
        Transaction.make
          ~id:(Printf.sprintf "%s-r%d" lg.txn.Transaction.id lg.attempt)
          ~subject:lg.txn.Transaction.subject
          ~credentials:lg.txn.Transaction.credentials lg.txn.Transaction.queries
    in
    Hashtbl.replace in_flight lg.txn.Transaction.id txn.Transaction.id;
    let go () = Manager.submit ?ts cluster config txn ~on_done:(on_done lg) in
    match probe with
    | None -> go ()
    | Some p ->
      let (), dt = Span.timed p.spans ~parent:!cur ~txn:lg.txn.Transaction.id "core.submit" go in
      nested := !nested + dt;
      p.submit_ns <- p.submit_ns + dt;
      p.submits <- p.submits + 1
  and on_done lg (o : Outcome.t) =
    Hashtbl.remove in_flight lg.txn.Transaction.id;
    proofs := !proofs + o.Outcome.proofs_evaluated;
    rounds := !rounds + o.Outcome.commit_rounds;
    lg.l_proofs <- lg.l_proofs + o.Outcome.proofs_evaluated;
    lg.l_rounds <- lg.l_rounds + o.Outcome.commit_rounds;
    if
      (not o.Outcome.committed)
      && o.Outcome.reason = Outcome.Wait_die
      && lg.attempt < max_restarts
    then begin
      lg.attempt <- lg.attempt + 1;
      incr restarts;
      Transport.at transport
        ~delay:(0.5 +. (0.5 *. float_of_int lg.attempt))
        (fun () -> submit lg (Some lg.first_submit))
    end
    else begin
      latencies.(!finished) <- o.Outcome.finished_at -. lg.first_submit;
      incr finished;
      if o.Outcome.committed then incr committed else incr failed;
      Printf.bprintf log "%s %b %s %h %d %d %d\n" lg.txn.Transaction.id
        o.Outcome.committed
        (Outcome.reason_name o.Outcome.reason)
        o.Outcome.finished_at lg.l_proofs lg.l_rounds lg.attempt;
      next ()
    end
  and next () =
    if !issued < n then begin
      let i = !issued in
      incr issued;
      let txn =
        match probe with
        | None -> generate ~i
        | Some p ->
          let start = Span.now_ns () in
          let txn = generate ~i in
          let stop = Span.now_ns () in
          ignore
            (Span.add p.spans ~name:"workload.generate" ~parent:!cur
               ~txn:txn.Transaction.id ~start ~stop);
          nested := !nested + (stop - start);
          p.gen_ns <- p.gen_ns + (stop - start);
          p.gens <- p.gens + 1;
          txn
      in
      submit
        {
          txn;
          attempt = 0;
          first_submit = Transport.now transport;
          l_proofs = 0;
          l_rounds = 0;
        }
        None
    end
  in
  let words0 = Gc.minor_words () in
  let t0 = Span.now_ns () in
  (* Stagger the first submissions a hair so the clients' first queries
     do not share a timestamp. *)
  for c = 0 to min clients n - 1 do
    Transport.at transport ~delay:(0.01 *. float_of_int c) next
  done;
  (match probe with
  | None ->
    while !finished < n && Engine.step engine do
      ()
    done
  | Some p ->
    let continue = ref true in
    while !continue && !finished < n do
      let pending = Engine.pending engine in
      if pending > p.pending_peak then p.pending_peak <- pending;
      let s = Span.open_ p.spans ~name:"sim.step" ~parent:p.parent ~txn:"" in
      cur := s;
      nested := 0;
      let start = Span.now_ns () in
      continue := Engine.step engine;
      let stop = Span.now_ns () in
      Span.finish p.spans s;
      cur := p.parent;
      p.step_self_ns <- (stop - start - !nested) :: p.step_self_ns
    done);
  let wall_s = Span.seconds_since t0 in
  let alloc_words = Gc.minor_words () -. words0 in
  let stuck = List.sort compare (Hashtbl.fold (fun _ id acc -> id :: acc) in_flight []) in
  List.iter
    (fun id ->
      latencies.(!finished) <- infinity;
      incr finished;
      incr failed;
      Printf.bprintf log "%s stuck\n" id)
    stuck;
  {
    n;
    committed = !committed;
    failed = !failed;
    stuck;
    restarts = !restarts;
    proofs = !proofs;
    commit_rounds = !rounds;
    messages = Counter.get counters "messages" - messages0;
    events = Engine.steps engine - steps0;
    trace_entries = Trace.length (Transport.trace transport);
    latencies;
    digest = Digest.to_hex (Digest.string (Buffer.contents log));
    wall_s;
    alloc_words;
  }

(** One result for several batches: counts summed, latencies
    concatenated, digests chained in order. *)
let merge = function
  | [] -> invalid_arg "Loop.merge: no batches"
  | rs ->
    let sum f = List.fold_left (fun acc r -> acc + f r) 0 rs in
    {
      n = sum (fun r -> r.n);
      committed = sum (fun r -> r.committed);
      failed = sum (fun r -> r.failed);
      stuck = List.concat_map (fun r -> r.stuck) rs;
      restarts = sum (fun r -> r.restarts);
      proofs = sum (fun r -> r.proofs);
      commit_rounds = sum (fun r -> r.commit_rounds);
      messages = sum (fun r -> r.messages);
      events = sum (fun r -> r.events);
      trace_entries = sum (fun r -> r.trace_entries);
      latencies = Array.concat (List.map (fun r -> r.latencies) rs);
      digest =
        Digest.to_hex (Digest.string (String.concat "" (List.map (fun r -> r.digest) rs)));
      wall_s = List.fold_left (fun acc r -> acc +. r.wall_s) 0. rs;
      alloc_words = List.fold_left (fun acc r -> acc +. r.alloc_words) 0. rs;
    }
