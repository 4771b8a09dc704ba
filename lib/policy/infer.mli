(** Forward-chaining inference over {!Rule} programs.

    [saturate] computes the least fixpoint of a rule set over a base of
    facts; [satisfies] answers the satisfiability question at the heart of a
    proof of authorization: can the policy's rules derive the requested
    permission from the presented credentials?

    A rule set is compiled once into a {!program}: stratified, with its
    predicates numbered and each rule turned into a join plan whose
    variables are environment slots.  Evaluation is semi-naive: within a
    stratum, every round after the first joins only the facts the previous
    round derived.  A policy compiles its rules on first use and keeps the
    program ({!Policy.permits_all}), so a proof costs the facts it joins. *)

(** Derived fact database. *)
type db

(** A compiled rule set. *)
type program

(** [compile rules] stratifies and plans [rules]. Raises
    [Invalid_argument "Infer: rules are not stratifiable (negation
    cycle)"] on recursion through negation. *)
val compile : Rule.t list -> program

(** [eval program ~facts] derives everything derivable from [facts].
    Raises [Invalid_argument] if any fact is non-ground. *)
val eval : program -> facts:Rule.fact list -> db

(** [saturate ~rules ~facts] is [eval (compile rules) ~facts], except
    that a non-ground base fact is reported before a negation cycle. *)
val saturate : rules:Rule.t list -> facts:Rule.fact list -> db

(** All facts (base and derived) in the database. *)
val facts : db -> Rule.fact list

val size : db -> int

(** [holds db atom] — is this ground atom in the database? Raises
    [Invalid_argument] on a non-ground query. *)
val holds : db -> Rule.atom -> bool

(** [query db pattern] is every binding of the pattern's variables that
    makes it hold, as association lists from variable name to constant. *)
val query : db -> Rule.atom -> (string * string) list list

(** [satisfies ~rules ~facts goal] saturates and checks the (ground)
    goal. *)
val satisfies : rules:Rule.t list -> facts:Rule.fact list -> Rule.atom -> bool
