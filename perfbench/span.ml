(* Monotonic clock and the in-memory span store of the traced run.

   A span is one timed call into a layer's public function, made from the
   benchmark's own files: name, start, end, parent span and the logical
   transaction it served.  Spans stay in memory until [write] at the end
   of the run. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

type t = {
  mutable len : int;
  mutable names : string array;
  mutable starts : int array;
  mutable stops : int array;
  mutable parents : int array;
  mutable txns : string array;
  cap : int;  (** Spans beyond this many are timed but not kept. *)
}

let create ~cap =
  let n = 1024 in
  {
    len = 0;
    names = Array.make n "";
    starts = Array.make n 0;
    stops = Array.make n 0;
    parents = Array.make n (-1);
    txns = Array.make n "";
    cap;
  }

let grow t =
  let n = 2 * Array.length t.names in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.names <- extend t.names "";
  t.starts <- extend t.starts 0;
  t.stops <- extend t.stops 0;
  t.parents <- extend t.parents (-1);
  t.txns <- extend t.txns ""

(** [add t ~name ~parent ~txn ~start ~stop] keeps one finished span and
    returns its id, or [-1] once the store is full. *)
let add t ~name ~parent ~txn ~start ~stop =
  if t.len >= t.cap then -1
  else begin
    if t.len = Array.length t.names then grow t;
    let i = t.len in
    t.names.(i) <- name;
    t.starts.(i) <- start;
    t.stops.(i) <- stop;
    t.parents.(i) <- parent;
    t.txns.(i) <- txn;
    t.len <- i + 1;
    i
  end

(** Reserve a span whose end is not known yet; [finish] sets it. *)
let open_ t ~name ~parent ~txn =
  let now = now_ns () in
  add t ~name ~parent ~txn ~start:now ~stop:now

let finish t i = if i >= 0 then t.stops.(i) <- now_ns ()

(** [timed t ~parent ~txn name f] runs [f] as one kept span and returns its
    result with the elapsed nanoseconds. *)
let timed t ~parent ?(txn = "") name f =
  let start = now_ns () in
  let r = f () in
  let stop = now_ns () in
  ignore (add t ~name ~parent ~txn ~start ~stop);
  (r, stop - start)
let length t = t.len

let duration_ns t i = t.stops.(i) - t.starts.(i)

(** Self time of every span: its duration minus the part of it that its
    direct children cover (children of one parent never overlap here:
    the run is single-threaded). *)
let self_ns t =
  let self = Array.init t.len (duration_ns t) in
  for i = 0 to t.len - 1 do
    let p = t.parents.(i) in
    if p >= 0 then self.(p) <- self.(p) - duration_ns t i
  done;
  self

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(** One JSON object per line:
    [{"id","name","start_ns","end_ns","self_ns","parent","txn"}]. *)
let write t path =
  let self = self_ns t in
  let oc = open_out path in
  for i = 0 to t.len - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"name\":\"%s\",\"start_ns\":%d,\"end_ns\":%d,\"self_ns\":%d,\
       \"parent\":%d,\"txn\":\"%s\"}\n"
      i (escape t.names.(i)) t.starts.(i) t.stops.(i) self.(i) t.parents.(i)
      (escape t.txns.(i))
  done;
  close_out oc
