module Fact_set = Set.Make (struct
  type t = string * string list

  let compare = compare
end)

let ensure_ground (a : Rule.fact) =
  List.iter
    (function
      | Rule.Const _ -> ()
      | Rule.Var x ->
        invalid_arg (Printf.sprintf "Infer: non-ground fact (variable %s)" x))
    a.Rule.args

let key_of_fact (a : Rule.fact) =
  ensure_ground a;
  ( a.Rule.pred,
    List.map (function Rule.Const s -> s | Rule.Var _ -> assert false) a.Rule.args )

(* ------------------------------------------------------------------ *)
(* Stratification                                                      *)
(* ------------------------------------------------------------------ *)

(* stratum(head) >= stratum(positive dep); > stratum(negative dep).
   Iterate to fixpoint; a stratum exceeding the predicate count means a
   cycle through negation. *)
let stratify rules =
  let strata = Hashtbl.create 16 in
  let get p = Option.value ~default:0 (Hashtbl.find_opt strata p) in
  let n_preds =
    List.length
      (List.sort_uniq String.compare
         (List.concat_map
            (fun (r : Rule.t) ->
              r.Rule.head.Rule.pred
              :: List.map
                   (fun (a : Rule.atom) -> a.Rule.pred)
                   (Rule.positive_body r @ Rule.negative_body r))
            rules))
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (r : Rule.t) ->
        let h = r.Rule.head.Rule.pred in
        let bump target =
          if get h < target then begin
            if target > n_preds then
              invalid_arg "Infer: rules are not stratifiable (negation cycle)";
            Hashtbl.replace strata h target;
            changed := true
          end
        in
        List.iter
          (fun (a : Rule.atom) -> bump (get a.Rule.pred))
          (Rule.positive_body r);
        List.iter
          (fun (a : Rule.atom) -> bump (get a.Rule.pred + 1))
          (Rule.negative_body r))
      rules
  done;
  (* Group rules by head stratum, ascending. *)
  let tagged =
    List.map (fun (r : Rule.t) -> (get r.Rule.head.Rule.pred, r)) rules
  in
  let max_stratum = List.fold_left (fun acc (s, _) -> max acc s) 0 tagged in
  List.init (max_stratum + 1) (fun s ->
      List.filter_map (fun (s', r) -> if s = s' then Some r else None) tagged)

(* ------------------------------------------------------------------ *)
(* Compiled programs                                                   *)
(* ------------------------------------------------------------------ *)

(* A relation is one (predicate, arity) pair, numbered at compile time.
   Variables become slots of a per-rule environment; a body atom's
   arguments are compiled left to right into what each position does
   with the fact's constant. *)
type arg =
  | Is of string  (** Constant: the fact must carry it. *)
  | Bind of int  (** First occurrence of a variable: store into the slot. *)
  | Same of int  (** Later occurrence: must equal the slot. *)

type body_atom = { rel : int; args : arg array }

type crule = {
  head_rel : int;
  head : arg array;  (** Only [Is] and [Same]: safety binds every variable. *)
  pos : body_atom array;
  neg : body_atom array;  (** Only [Is] and [Same]: safety binds them all. *)
  recursive : bool array;
      (** [pos.(i)] reads a relation this rule's stratum derives. *)
}

type stratum = {
  rules : crule array;
  heads : int array;  (** Relations the stratum derives, each once. *)
}

type program = {
  rel_index : (string, (int * int) list) Hashtbl.t;
      (** predicate -> (arity, relation) *)
  rel_preds : string array;  (** Each relation's predicate. *)
  strata : stratum array;
  slots : int;  (** Largest per-rule environment. *)
}

let rel_of program pred arity =
  match Hashtbl.find program.rel_index pred with
  | exception Not_found -> -1
  | arities -> (
    match List.assoc_opt arity arities with Some r -> r | None -> -1)

let compile rules =
  let strata = stratify rules in
  let index = Hashtbl.create 16 and preds = ref [] and next = ref 0 in
  let intern (a : Rule.atom) =
    let arity = List.length a.Rule.args in
    let known = Option.value ~default:[] (Hashtbl.find_opt index a.Rule.pred) in
    match List.assoc_opt arity known with
    | Some r -> r
    | None ->
      let r = !next in
      incr next;
      Hashtbl.replace index a.Rule.pred ((arity, r) :: known);
      preds := a.Rule.pred :: !preds;
      r
  in
  let slots = ref 0 in
  let compile_rule heads (r : Rule.t) =
    let vars = ref [] in
    let slot_of x = List.assoc_opt x !vars in
    let body_arg ~binding = function
      | Rule.Const c -> Is c
      | Rule.Var x -> (
        match slot_of x with
        | Some s -> Same s
        | None when binding ->
          let s = List.length !vars in
          vars := (x, s) :: !vars;
          Bind s
        | None ->
          (* Heads and negated atoms: [Rule.rule_literals] rejects these. *)
          invalid_arg (Printf.sprintf "Infer: variable %s not bound in body" x))
    in
    let body ~binding (a : Rule.atom) =
      let rel = intern a in
      { rel; args = Array.of_list (List.map (body_arg ~binding) a.Rule.args) }
    in
    let pos = Array.of_list (List.map (body ~binding:true) (Rule.positive_body r)) in
    let neg = Array.of_list (List.map (body ~binding:false) (Rule.negative_body r)) in
    let head = Array.of_list (List.map (body_arg ~binding:false) r.Rule.head.Rule.args) in
    slots := max !slots (List.length !vars);
    {
      head_rel = intern r.Rule.head;
      head;
      pos;
      neg;
      recursive = Array.map (fun a -> List.mem a.rel heads) pos;
    }
  in
  let strata =
    List.map
      (fun stratum ->
        let heads =
          List.sort_uniq Int.compare
            (List.map (fun (r : Rule.t) -> intern r.Rule.head) stratum)
        in
        {
          rules = Array.of_list (List.map (compile_rule heads) stratum);
          heads = Array.of_list heads;
        })
      strata
  in
  {
    rel_index = index;
    rel_preds = Array.of_list (List.rev !preds);
    strata = Array.of_list strata;
    slots = !slots;
  }

(* ------------------------------------------------------------------ *)
(* Semi-naive evaluation                                               *)
(* ------------------------------------------------------------------ *)

(* A relation's tuples, newest first: the facts added since position
   [n] in insertion order are the first [count - n] of the list, so a
   round's delta is a window of the live list and needs no copy. *)
type relation = { mutable tuples : Rule.term list list; mutable count : int }

type db = {
  program : program;
  rels : relation array;
  extra : Rule.fact list;  (** Facts over predicates no rule mentions. *)
}

type run = {
  r_rels : relation array;
  env : string array;
  lo : int array;
  hi : int array;
      (** A relation's delta this round: the facts at insertion positions
          [lo, hi). *)
  mutable delta_atom : int;  (** Positive atom restricted to its delta; -1 = none. *)
}

let rec unify env (args : arg array) i = function
  | [] -> true
  | Rule.Const v :: rest -> (
    match args.(i) with
    | Is c -> String.equal c v && unify env args (i + 1) rest
    | Bind s ->
      env.(s) <- v;
      unify env args (i + 1) rest
    | Same s -> String.equal env.(s) v && unify env args (i + 1) rest)
  | Rule.Var _ :: _ -> false

let rec exists_match env args = function
  | [] -> false
  | tuple :: rest -> unify env args 0 tuple || exists_match env args rest

let rec negations_hold run (neg : body_atom array) i =
  i = Array.length neg
  || (not (exists_match run.env neg.(i).args run.r_rels.(neg.(i).rel).tuples))
     && negations_hold run neg (i + 1)

let rec head_tuple env head i =
  if i = Array.length head then []
  else
    Rule.Const (match head.(i) with Is c -> c | Bind s | Same s -> env.(s))
    :: head_tuple env head (i + 1)

let emit run cr =
  if negations_hold run cr.neg 0 then begin
    let rel = run.r_rels.(cr.head_rel) in
    if not (exists_match run.env cr.head rel.tuples) then begin
      rel.tuples <- head_tuple run.env cr.head 0 :: rel.tuples;
      rel.count <- rel.count + 1
    end
  end

let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t

let rec solve run cr j =
  if j = Array.length cr.pos then emit run cr
  else begin
    let atom = cr.pos.(j) in
    let rel = run.r_rels.(atom.rel) in
    if j = run.delta_atom then
      scan run cr j atom
        (drop (rel.count - run.hi.(atom.rel)) rel.tuples)
        (run.hi.(atom.rel) - run.lo.(atom.rel))
    else scan run cr j atom rel.tuples rel.count
  end

and scan run cr j atom tuples n =
  match tuples with
  | tuple :: rest when n > 0 ->
    if unify run.env atom.args 0 tuple then solve run cr (j + 1);
    scan run cr j atom rest (n - 1)
  | _ -> ()

(* Round 0 fires every rule over everything known; later rounds fire
   only the recursive atoms, each over the facts the previous round
   added, until a round adds nothing. *)
let run_stratum run { rules; heads } =
  let mark () =
    Array.iter
      (fun r ->
        run.lo.(r) <- run.hi.(r);
        run.hi.(r) <- run.r_rels.(r).count)
      heads
  in
  Array.iter (fun r -> run.hi.(r) <- run.r_rels.(r).count) heads;
  run.delta_atom <- -1;
  Array.iter (fun cr -> solve run cr 0) rules;
  mark ();
  while Array.exists (fun r -> run.lo.(r) < run.hi.(r)) heads do
    Array.iter
      (fun cr ->
        Array.iteri
          (fun i recursive ->
            if recursive then begin
              run.delta_atom <- i;
              solve run cr 0
            end)
          cr.recursive)
      rules;
    mark ()
  done

let eval program ~facts =
  let rels =
    Array.init (Array.length program.rel_preds) (fun _ -> { tuples = []; count = 0 })
  in
  let extra =
    List.fold_left
      (fun extra (f : Rule.fact) ->
        ensure_ground f;
        match rel_of program f.Rule.pred (List.length f.Rule.args) with
        | -1 -> f :: extra
        | r ->
          let rel = rels.(r) in
          rel.tuples <- f.Rule.args :: rel.tuples;
          rel.count <- rel.count + 1;
          extra)
      [] facts
  in
  let n = Array.length rels in
  let run =
    {
      r_rels = rels;
      env = Array.make program.slots "";
      lo = Array.make n 0;
      hi = Array.make n 0;
      delta_atom = -1;
    }
  in
  Array.iter (run_stratum run) program.strata;
  { program; rels; extra }

let saturate ~rules ~facts =
  List.iter ensure_ground facts;
  eval (compile rules) ~facts

(* ------------------------------------------------------------------ *)
(* Reading the database                                                *)
(* ------------------------------------------------------------------ *)

let to_set db =
  let set = ref Fact_set.empty in
  Array.iteri
    (fun r rel ->
      let pred = db.program.rel_preds.(r) in
      List.iter
        (fun args -> set := Fact_set.add (key_of_fact (Rule.atom pred args)) !set)
        rel.tuples)
    db.rels;
  List.iter (fun f -> set := Fact_set.add (key_of_fact f) !set) db.extra;
  !set

let facts db =
  Fact_set.fold (fun (pred, args) acc -> Rule.fact pred args :: acc) (to_set db) []
  |> List.rev

let size db = Fact_set.cardinal (to_set db)

let rec same_args a b =
  match (a, b) with
  | [], [] -> true
  | Rule.Const x :: a, Rule.Const y :: b -> String.equal x y && same_args a b
  | _ -> false

let holds db (atom : Rule.atom) =
  if not (Rule.is_ground atom) then
    invalid_arg "Infer.holds: query atom must be ground";
  match rel_of db.program atom.Rule.pred (List.length atom.Rule.args) with
  | -1 -> List.exists (Rule.atom_equal atom) db.extra
  | r -> List.exists (same_args atom.Rule.args) db.rels.(r).tuples

(* Match one atom against one ground fact, extending the bindings. *)
let match_atom (atom : Rule.atom) ((pred, args) : string * string list) =
  if (not (String.equal atom.Rule.pred pred))
     || List.length atom.Rule.args <> List.length args
  then None
  else
    List.fold_left2
      (fun env term value ->
        match (env, term) with
        | None, _ -> None
        | Some env, Rule.Const c -> if String.equal c value then Some env else None
        | Some env, Rule.Var x -> (
          match List.assoc_opt x env with
          | Some bound -> if String.equal bound value then Some env else None
          | None -> Some ((x, value) :: env)))
      (Some []) atom.Rule.args args

let query db pattern =
  Fact_set.fold
    (fun fact acc ->
      match match_atom pattern fact with None -> acc | Some env -> env :: acc)
    (to_set db) []

let satisfies ~rules ~facts goal = holds (saturate ~rules ~facts) goal
