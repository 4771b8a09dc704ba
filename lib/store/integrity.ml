type lookup = string -> Value.t option

(* A constraint is its shape; the name is printed from it only when a
   violation is reported (a cluster builds one constraint per data item,
   and most never fail). *)
type t =
  | Non_negative of string
  | Range of string * int * int
  | Sum_at_most of string list * int
  | Sum_preserved of string list * int
  | Opaque of { name : string; check : lookup -> bool }

let make ~name check = Opaque { name; check }
let non_negative key = Non_negative key
let range key ~lo ~hi = Range (key, lo, hi)
let sum_at_most keys ~bound = Sum_at_most (keys, bound)
let sum_preserved keys ~total = Sum_preserved (keys, total)

let name = function
  | Non_negative key -> Printf.sprintf "non_negative(%s)" key
  | Range (key, lo, hi) -> Printf.sprintf "range(%s,%d,%d)" key lo hi
  | Sum_at_most (keys, bound) ->
    Printf.sprintf "sum_at_most(%s,%d)" (String.concat "+" keys) bound
  | Sum_preserved (keys, total) ->
    Printf.sprintf "sum_preserved(%s,%d)" (String.concat "+" keys) total
  | Opaque { name; _ } -> name

let may_read t written =
  match t with
  | Non_negative key | Range (key, _, _) -> written key
  | Sum_at_most (keys, _) | Sum_preserved (keys, _) -> List.exists written keys
  | Opaque _ -> true

let int_at lookup key =
  match lookup key with Some (Value.Int n) -> Some n | Some (Value.Text _) | None -> None

let rec sum_of lookup total = function
  | [] -> Some total
  | key :: keys -> (
    match int_at lookup key with
    | Some n -> sum_of lookup (total + n) keys
    | None -> None)

let check t lookup =
  match t with
  | Non_negative key -> (
    match int_at lookup key with Some n -> n >= 0 | None -> false)
  | Range (key, lo, hi) -> (
    match int_at lookup key with Some n -> n >= lo && n <= hi | None -> false)
  | Sum_at_most (keys, bound) -> (
    match sum_of lookup 0 keys with Some s -> s <= bound | None -> false)
  | Sum_preserved (keys, total) -> (
    match sum_of lookup 0 keys with Some s -> s = total | None -> false)
  | Opaque { check; _ } -> check lookup

let check_all constraints lookup =
  List.filter_map
    (fun c -> if check c lookup then None else Some (name c))
    constraints
