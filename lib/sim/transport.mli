(** Message delivery fabric connecting simulated nodes.

    A ['msg Transport.t] owns the engine, network model and trace for one
    simulated cluster.  Nodes register a handler under their name; [send]
    consults the network model, counts the message (the unit of the
    paper's message-complexity metric), records trace entries when the
    trace is on, and schedules the receiver's handler.

    Crashed nodes silently swallow traffic, modelling fail-stop servers for
    the recovery experiments. *)

type 'msg t

(** [create ~label_of ()] builds an empty fabric with its own engine.
    [label_of] renders a message for traces and counters; [latency]
    defaults to {!Latency.lan}; [seed] fixes all randomness. *)
val create :
  ?seed:int64 ->
  ?latency:Latency.t ->
  ?drop:float ->
  label_of:('msg -> string) ->
  unit ->
  'msg t

val engine : _ t -> Engine.t
val network : _ t -> Network.t

(** The fabric's wire trace; it stays empty until {!enable_trace}. *)
val trace : _ t -> Trace.t

(** [enable_trace t] turns on (once) and returns the wire trace: every
    [send], delivery, drop and [mark] from then on is appended to it.
    Off by default, so a long run keeps no per-message history unless a
    figure or a trace dump asks for one. *)
val enable_trace : _ t -> Trace.t

(** Does a [mark] label reach anything, i.e. is the trace or the tracer
    on?  A caller that builds a label only to mark it checks this first. *)
val marking : _ t -> bool

val counters : _ t -> Cloudtx_metrics.Counter.t

(** The fabric's span tracer; {!Cloudtx_obs.Tracer.noop} until
    {!enable_tracing} is called, so instrumentation is free by default. *)
val tracer : _ t -> Cloudtx_obs.Tracer.t

(** The fabric's metrics registry; {!Cloudtx_obs.Registry.noop} until
    {!enable_metrics} is called. *)
val registry : _ t -> Cloudtx_obs.Registry.t

(** [enable_tracing t] installs (once) and returns a live tracer clocked
    by simulated time, so exported traces are deterministic.  Every
    [send]/[mark] from then on also lands in the tracer as an instant
    event, bridging the {!Trace} view into the span artifact. *)
val enable_tracing : _ t -> Cloudtx_obs.Tracer.t

(** [enable_metrics t] installs (once) and returns a live registry; also
    hooks the engine to sample queue depth ([sim.pending_events]). *)
val enable_metrics : _ t -> Cloudtx_obs.Registry.t

(** The fabric's windowed time series; [None] until
    {!enable_timeseries} is called. *)
val timeseries : _ t -> Cloudtx_obs.Timeseries.t option

(** [enable_timeseries t] installs (once) and returns a windowed
    {!Cloudtx_obs.Timeseries.t} aligned to the fabric's clock: sim-time
    starts at 0, so window 0 opens at the engine's epoch and window
    edges fall on exact multiples of [width_ms] of simulated time.
    Feeding it is the observer's job (see [Cloudtx_core.Health.attach]);
    the fabric only owns the window/clock convention. *)
val enable_timeseries :
  ?width_ms:float -> _ t -> Cloudtx_obs.Timeseries.t

(** The fabric's flight-recorder journal; {!Cloudtx_obs.Journal.noop}
    until {!enable_journal} is called. *)
val journal : _ t -> Cloudtx_obs.Journal.t

(** [enable_journal ?format ?max_buffer_bytes ?path t] installs (once)
    and returns a live journal clocked by simulated time; [format]
    selects JSONL (default) or binary encoding, and with [path] records
    are also written through to that file.  [max_buffer_bytes] caps
    the in-memory buffer (drop-oldest); evictions feed the registry's
    [journal.dropped] counter when metrics are enabled.  The protocol
    drivers record every machine step from then on. *)
val enable_journal :
  ?format:Cloudtx_obs.Journal.format ->
  ?max_buffer_bytes:int ->
  ?path:string ->
  _ t ->
  Cloudtx_obs.Journal.t

(** Simulated now, for convenience. *)
val now : _ t -> float

(** A private RNG stream split off the fabric seed, for workloads. *)
val fork_rng : _ t -> Splitmix.t

(** [register t name handler] installs the node. Raises [Invalid_argument]
    on duplicate names. Handler receives [(src, msg)]. *)
val register : 'msg t -> string -> (src:string -> 'msg -> unit) -> unit

(** [register_seq t name handler] is {!register} but the handler also
    receives the message's wire sequence number.  Every copy of one
    logical [send] (the original and any network-level duplicates) carries
    the same [seq], so receivers can deduplicate re-deliveries. *)
val register_seq :
  'msg t -> string -> (src:string -> seq:int -> 'msg -> unit) -> unit

(** [unregister t name] removes the node's handler (e.g. to swap in a
    recovery handler after a restart). In-flight messages to [name] are
    delivered to whichever handler is registered at delivery time, or
    dropped if none is. *)
val unregister : _ t -> string -> unit

val registered : _ t -> string -> bool

(** [crash t name] makes the node drop all incoming traffic (fail-stop). *)
val crash : _ t -> string -> unit

(** [recover t name] lets a crashed node receive again. *)
val recover : _ t -> string -> unit

val crashed : _ t -> string -> bool

(** [send t ~src ~dst msg] counts the message under ["messages"] and
    ["msg:<label>"], traces it, and schedules delivery per the network
    model. Unknown destinations are traced as drops. *)
val send : 'msg t -> src:string -> dst:string -> 'msg -> unit

(** [at t ~delay f] schedules local work (not a message, not counted). *)
val at : _ t -> delay:float -> (unit -> unit) -> unit

(** [mark t ~node label] records a protocol annotation in the trace and
    the tracer, whichever are on. *)
val mark : _ t -> node:string -> string -> unit

(** Run the engine (see {!Engine.run}). *)
val run : ?until:float -> ?max_steps:int -> _ t -> [ `Quiescent | `Time_limit | `Step_limit ]
