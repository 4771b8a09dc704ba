module Counter = Cloudtx_metrics.Counter
module Obs = Cloudtx_obs

type 'msg t = {
  engine : Engine.t;
  network : Network.t;
  trace : Trace.t;
  counters : Counter.t;
  label_of : 'msg -> string;
  handlers : (string, src:string -> seq:int -> 'msg -> unit) Hashtbl.t;
  crashed : (string, unit) Hashtbl.t;
  rng : Splitmix.t;
  mutable next_seq : int;
  mutable trace_on : bool;  (* [trace] records only once enabled *)
  mutable tracer : Obs.Tracer.t;
  mutable registry : Obs.Registry.t;
  mutable journal : Obs.Journal.t;
  mutable timeseries : Obs.Timeseries.t option;
}

let create ?(seed = 42L) ?(latency = Latency.lan) ?(drop = 0.) ~label_of () =
  let rng = Splitmix.create seed in
  let net_rng = Splitmix.split rng in
  {
    engine = Engine.create ();
    network = Network.create ~drop ~latency ~rng:net_rng ();
    trace = Trace.create ();
    counters = Counter.create ();
    label_of;
    handlers = Hashtbl.create 16;
    crashed = Hashtbl.create 4;
    rng;
    next_seq = 0;
    trace_on = false;
    tracer = Obs.Tracer.noop;
    registry = Obs.Registry.noop;
    journal = Obs.Journal.noop;
    timeseries = None;
  }

let engine t = t.engine
let network t = t.network
let trace t = t.trace
let counters t = t.counters
let tracer t = t.tracer
let registry t = t.registry
let journal t = t.journal
let now t = Engine.now t.engine
let fork_rng t = Splitmix.split t.rng

let enable_trace t =
  t.trace_on <- true;
  t.trace

let marking t = t.trace_on || Obs.Tracer.enabled t.tracer

let enable_tracing t =
  if not (Obs.Tracer.enabled t.tracer) then
    t.tracer <- Obs.Tracer.create ~clock:(fun () -> Engine.now t.engine) ();
  t.tracer

let enable_metrics t =
  if not (Obs.Registry.enabled t.registry) then begin
    let registry = Obs.Registry.create () in
    t.registry <- registry;
    Engine.set_observer t.engine
      (Some
         (fun ~now:_ ~pending ->
           Obs.Registry.set_gauge registry "sim.pending_events" []
             (float_of_int pending)))
  end;
  t.registry

let timeseries t = t.timeseries

let enable_timeseries ?width_ms t =
  match t.timeseries with
  | Some ts -> ts
  | None ->
    (* Sim-time starts at 0, so window 0 opens at the engine's epoch and
       every edge falls on an exact multiple of the width. *)
    let ts = Obs.Timeseries.create ?width_ms () in
    t.timeseries <- Some ts;
    ts

let enable_journal ?format ?max_buffer_bytes ?path t =
  if not (Obs.Journal.enabled t.journal) then begin
    let journal =
      Obs.Journal.create
        ~clock:(fun () -> Engine.now t.engine)
        ?format ?max_buffer_bytes ?path ()
    in
    (* The registry may be enabled after the journal: look it up at drop
       time, not at wiring time. *)
    Obs.Journal.set_on_drop journal (fun n ->
        if Obs.Registry.enabled t.registry then
          Obs.Registry.incr t.registry ~by:n "journal.dropped" []);
    t.journal <- journal
  end;
  t.journal

let register_seq t name handler =
  if Hashtbl.mem t.handlers name then
    invalid_arg (Printf.sprintf "Transport.register: duplicate node %s" name);
  Hashtbl.add t.handlers name handler

let register t name handler =
  register_seq t name (fun ~src ~seq:_ msg -> handler ~src msg)

let unregister t name = Hashtbl.remove t.handlers name
let registered t name = Hashtbl.mem t.handlers name
let crash t name = Hashtbl.replace t.crashed name ()
let recover t name = Hashtbl.remove t.crashed name
let crashed t name = Hashtbl.mem t.crashed name

(* Network events double as tracer instants so one exported artifact
   carries both the protocol spans and the wire-level view.  The instant
   lands on [src]'s track with the other endpoint under "peer". *)
let span_net t ~event ~src ~dst label =
  if Obs.Tracer.enabled t.tracer then
    Obs.Tracer.instant t.tracer ~track:src
      ~attrs:[ ("peer", dst); ("label", label) ]
      event

(* Callers check [trace_on] first, so an off trace allocates no entry. *)
let record t kind = Trace.record t.trace ~time:(now t) kind

let send t ~src ~dst msg =
  let label = t.label_of msg in
  Counter.incr t.counters "messages";
  Counter.incr t.counters ("msg:" ^ label);
  if Obs.Registry.enabled t.registry then
    Obs.Registry.incr t.registry "messages_total" [ ("type", label) ];
  if t.trace_on then record t (Trace.Send { src; dst; label });
  span_net t ~event:"send" ~src ~dst label;
  match Hashtbl.find_opt t.handlers dst with
  | None ->
    if t.trace_on then record t (Trace.Drop { src; dst; label });
    span_net t ~event:"drop" ~src ~dst label
  | Some _ -> (
    match Network.fate t.network ~src ~dst with
    | `Lost ->
      if t.trace_on then record t (Trace.Drop { src; dst; label });
      span_net t ~event:"drop" ~src ~dst label
    | `Deliver_each delays ->
      (* Every copy of this logical send shares one wire seq, so receivers
         can recognise duplicates. Handlers are looked up at delivery time:
         a node that re-registered after a restart sees the traffic. *)
      let seq = t.next_seq in
      t.next_seq <- seq + 1;
      List.iter
        (fun delay ->
          Engine.schedule t.engine ~delay (fun () ->
              match Hashtbl.find_opt t.handlers dst with
              | Some handler when not (Hashtbl.mem t.crashed dst) ->
                if t.trace_on then record t (Trace.Recv { src; dst; label });
                span_net t ~event:"recv" ~src:dst ~dst:src label;
                handler ~src ~seq msg
              | _ ->
                if t.trace_on then record t (Trace.Drop { src; dst; label });
                span_net t ~event:"drop" ~src ~dst label))
        delays)

let at t ~delay f = Engine.schedule t.engine ~delay f

let mark t ~node label =
  if t.trace_on then record t (Trace.Mark { node; label });
  if Obs.Tracer.enabled t.tracer then
    Obs.Tracer.instant t.tracer ~track:node label

let run ?until ?max_steps t = Engine.run ?until ?max_steps t.engine
