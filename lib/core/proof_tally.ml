type t = (string, int ref) Hashtbl.t

let create () = Hashtbl.create 64
let start t ~txn = if not (Hashtbl.mem t txn) then Hashtbl.add t txn (ref 0)

let count t ~txn =
  match Hashtbl.find_opt t txn with Some n -> incr n | None -> ()

let finish t ~txn =
  match Hashtbl.find_opt t txn with
  | Some n ->
    Hashtbl.remove t txn;
    !n
  | None -> 0

let in_flight t = Hashtbl.length t
