type mode = Shared | Exclusive

type request = { txn : string; ts : float; mode : mode }

type lock_state = {
  mutable holders : request list; (* all Shared, or a single Exclusive *)
  mutable queue : request list; (* oldest-ts first *)
}

type outcome = Granted | Queued | Die

type observer = {
  on_acquire : txn:string -> key:string -> mode:mode -> outcome:outcome -> unit;
  on_promoted : txn:string -> key:string -> mode:mode -> unit;
  on_killed : txn:string -> key:string -> unit;
}

type t = {
  table : (string, lock_state) Hashtbl.t;
  mutable observer : observer option;
}

let create () = { table = Hashtbl.create 64; observer = None }
let set_observer t obs = t.observer <- obs

let state t key =
  match Hashtbl.find_opt t.table key with
  | Some s -> s
  | None ->
    let s = { holders = []; queue = [] } in
    Hashtbl.add t.table key s;
    s

let compatible requested holders =
  match requested with
  | Shared -> List.for_all (fun r -> r.mode = Shared) holders
  | Exclusive -> holders = []

let insert_by_ts req queue =
  let rec go = function
    | [] -> [ req ]
    | r :: rest when r.ts <= req.ts -> r :: go rest
    | rest -> req :: rest
  in
  go queue

(* Wait-die: the requester may wait only if it is older (strictly smaller
   timestamp) than every conflicting holder; equal or younger dies.  Equal
   timestamps die to break symmetry deterministically. *)
let wait_die requester holders =
  if List.for_all (fun h -> requester.ts < h.ts) holders then Queued else Die

let acquire_locked t ~txn ~ts ~key mode =
  let s = state t key in
  let mine, others = List.partition (fun r -> String.equal r.txn txn) s.holders in
  match (mine, mode) with
  | [ held ], Shared ->
    ignore held;
    Granted
  | [ held ], Exclusive ->
    if held.mode = Exclusive then Granted
    else if others = [] then begin
      (* Upgrade: sole Shared holder becomes Exclusive. *)
      s.holders <- [ { held with mode = Exclusive } ];
      Granted
    end
    else begin
      let req = { txn; ts; mode } in
      match wait_die req others with
      | Queued ->
        s.queue <- insert_by_ts req s.queue;
        Queued
      | other -> other
    end
  | [], _ ->
    let req = { txn; ts; mode } in
    if compatible mode s.holders && s.queue = [] then begin
      s.holders <- req :: s.holders;
      Granted
    end
    else if compatible mode s.holders
            && List.for_all (fun q -> q.ts > ts) s.queue
    then begin
      (* No conflicting holder and strictly older than every waiter: jump
         the queue rather than deadlock behind a younger upgrade. *)
      s.holders <- req :: s.holders;
      Granted
    end
    else begin
      let conflicting =
        List.filter (fun h -> not (compatible mode [ h ])) s.holders
      in
      let blockers = if conflicting = [] then s.queue else conflicting in
      match wait_die req blockers with
      | Queued ->
        s.queue <- insert_by_ts req s.queue;
        Queued
      | other -> other
    end
  | _ :: _ :: _, _ -> assert false (* one request per txn per key *)

let acquire t ~txn ~ts ~key mode =
  let outcome = acquire_locked t ~txn ~ts ~key mode in
  (match t.observer with
  | None -> ()
  | Some obs -> obs.on_acquire ~txn ~key ~mode ~outcome);
  outcome

type release = {
  granted : (string * string * mode) list;
  killed : (string * string) list;
}

(* Promote queued requests that have become compatible, respecting queue
   order (no barging past an incompatible older waiter); then re-apply
   wait-die to the survivors — a waiter younger than a conflicting current
   holder would be a young-waits-for-old edge, which admits deadlock, so
   it dies now.  A kill can unblock the queue: when the head dies, a
   compatible waiter behind it may now be grantable, and nobody would
   ever promote it again.  So repeat until a kill pass removes no one;
   on return, the queue head (if any) is not grantable.  Each repeat
   shrinks the queue, so this ends. *)
let rec promote key s granted killed =
  let rec go () =
    match s.queue with
    | [] -> ()
    | req :: rest ->
      (* Upgrade waiting in queue: holder already has Shared on this key. *)
      let own, others =
        List.partition (fun h -> String.equal h.txn req.txn) s.holders
      in
      let can_grant =
        match (own, req.mode) with
        | [ _ ], Exclusive -> others = []
        | [ _ ], Shared -> true
        | [], m -> compatible m s.holders
        | _ :: _ :: _, _ -> assert false
      in
      if can_grant then begin
        s.holders <- req :: List.filter (fun h -> not (String.equal h.txn req.txn)) s.holders;
        s.queue <- rest;
        granted := (req.txn, key, req.mode) :: !granted;
        go ()
      end
  in
  go ();
  let survives req =
    let conflicting =
      List.filter
        (fun h ->
          (not (String.equal h.txn req.txn)) && not (compatible req.mode [ h ]))
        s.holders
    in
    if List.for_all (fun h -> req.ts < h.ts) conflicting then true
    else begin
      killed := (req.txn, key) :: !killed;
      false
    end
  in
  let waiting = List.length s.queue in
  s.queue <- List.filter survives s.queue;
  if List.length s.queue < waiting then promote key s granted killed

let release_all t ~txn =
  let granted = ref [] in
  let killed = ref [] in
  Hashtbl.iter
    (fun key s ->
      let before = List.length s.holders + List.length s.queue in
      s.holders <- List.filter (fun r -> not (String.equal r.txn txn)) s.holders;
      s.queue <- List.filter (fun r -> not (String.equal r.txn txn)) s.queue;
      let after = List.length s.holders + List.length s.queue in
      if after < before then promote key s granted killed)
    t.table;
  let result = { granted = List.rev !granted; killed = List.rev !killed } in
  (match t.observer with
  | None -> ()
  | Some obs ->
    List.iter
      (fun (txn, key, mode) -> obs.on_promoted ~txn ~key ~mode)
      result.granted;
    List.iter (fun (txn, key) -> obs.on_killed ~txn ~key) result.killed);
  result

let holders t ~key =
  match Hashtbl.find_opt t.table key with
  | None -> []
  | Some s -> List.map (fun r -> (r.txn, r.mode)) s.holders

let waiters t ~key =
  match Hashtbl.find_opt t.table key with
  | None -> []
  | Some s -> List.map (fun r -> r.txn) s.queue

let clear t = Hashtbl.reset t.table

let held_by t ~txn =
  Hashtbl.fold
    (fun key s acc ->
      if List.exists (fun r -> String.equal r.txn txn) s.holders then key :: acc
      else acc)
    t.table []
  |> List.sort String.compare
