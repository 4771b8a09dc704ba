(* Machine-speed calibration.

   The benchmark runs on shared machines whose speed drifts by up to 2x
   from one second to the next (neighbouring tenants, frequency
   changes).  Every timed interval is therefore bracketed by a fixed
   reference kernel that uses only the OCaml standard library, and the
   interval is rescaled to the kernel's nominal duration:

     normalized = measured * nominal_s / (mean of the two kernel runs)

   A change to the program moves the measured interval and not the
   kernel, so normalized figures still move with the program, while a
   slower machine stretches both and cancels out. *)

(* Allocation, string hashing, list and array work: the kinds of work
   the simulator does, so that the kernel slows down when it does. *)
let kernel () =
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 0 to 16_000 do
    let k = Printf.sprintf "k%d" (i land 2047) in
    let prev = try Hashtbl.find h k with Not_found -> [] in
    let l = i :: (match prev with a :: b :: _ -> [ a; b ] | l -> l) in
    Hashtbl.replace h k l;
    acc := !acc + List.length l
  done;
  let a = Array.init 8_000 (fun i -> float_of_int ((i * 7919) land 65535)) in
  Array.sort Float.compare a;
  !acc + int_of_float a.(0)

(** Duration of one kernel run the normalized figures are scaled to: its
    duration on an unloaded 2 GHz x86-64 core of a 2-core virtual machine,
    so normalized figures read close to wall-clock ones there. *)
let nominal_s = 0.008

let run_kernel () =
  let t0 = Span.now_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  Span.seconds_since t0

(** [bracket f] runs the kernel, [f], and the kernel again; returns [f]'s
    result and the factor [nominal_s / mean kernel time] that converts
    seconds measured inside [f] into normalized seconds. *)
let bracket f =
  let before = run_kernel () in
  let r = f () in
  let after = run_kernel () in
  (r, nominal_s /. ((before +. after) /. 2.))
