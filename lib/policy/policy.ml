type version = int

type compiled = { mutable program : Infer.program option }

type t = {
  domain : string;
  version : version;
  rules : Rule.t list;
  accept_capabilities : bool;
  compiled : compiled;
}

let make ~domain ~version ~accept_capabilities rules =
  { domain; version; rules; accept_capabilities; compiled = { program = None } }

let create ?(accept_capabilities = true) ~domain rules =
  make ~domain ~version:1 ~accept_capabilities rules

let of_wire ~domain ~version ~accept_capabilities rules =
  if version < 1 then invalid_arg "Policy.of_wire: version must be >= 1";
  make ~domain ~version ~accept_capabilities rules

let amend ?accept_capabilities t rules =
  let accept_capabilities =
    match accept_capabilities with
    | Some flag -> flag
    | None -> t.accept_capabilities
  in
  make ~domain:t.domain ~version:(t.version + 1) ~accept_capabilities rules

let goal ~subject ~action ~item =
  Rule.atom "permit" [ Rule.c subject; Rule.c action; Rule.c item ]

let capability_fact ~subject ~action ~item =
  Rule.fact "capability" [ subject; action; item ]

let capability_rule =
  Rule.rule
    (Rule.atom "permit" [ Rule.v "s"; Rule.v "a"; Rule.v "i" ])
    [ Rule.atom "capability" [ Rule.v "s"; Rule.v "a"; Rule.v "i" ] ]

let effective_rules t =
  if t.accept_capabilities then capability_rule :: t.rules else t.rules

(* Compiled on first evaluation, never on decode: a policy received
   off the wire and never evaluated costs nothing extra. *)
let program t =
  match t.compiled.program with
  | Some program -> program
  | None ->
    let program = Infer.compile (effective_rules t) in
    t.compiled.program <- Some program;
    program

let permits t ~facts ~subject ~action ~item =
  Infer.holds (Infer.eval (program t) ~facts) (goal ~subject ~action ~item)

let permits_all t ~facts ~subject ~action ~items =
  let db = Infer.eval (program t) ~facts in
  List.filter (fun item -> not (Infer.holds db (goal ~subject ~action ~item))) items

let pp ppf t =
  Format.fprintf ppf "@[<v>policy %s v%d (%d rules%s)@]" t.domain t.version
    (List.length t.rules)
    (if t.accept_capabilities then ", capabilities accepted" else "")
