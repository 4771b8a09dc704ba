(* Unit and property tests for the policy library: rules, inference,
   credentials, CAs, policies, versioning, replicas and proofs. *)

module Rule = Cloudtx_policy.Rule
module Infer = Cloudtx_policy.Infer
module Credential = Cloudtx_policy.Credential
module Ca = Cloudtx_policy.Ca
module Policy = Cloudtx_policy.Policy
module Admin = Cloudtx_policy.Admin
module Replica = Cloudtx_policy.Replica
module Proof = Cloudtx_policy.Proof

(* ------------------------------------------------------------------ *)
(* Rules                                                               *)
(* ------------------------------------------------------------------ *)

let test_rule_construction () =
  let r =
    Rule.rule
      (Rule.atom "p" [ Rule.v "x" ])
      [ Rule.atom "q" [ Rule.v "x"; Rule.c "k" ] ]
  in
  Alcotest.(check string) "pretty" "p(X) :- q(X, k)." (Rule.to_string r);
  Alcotest.(check bool) "fact is ground" true (Rule.is_ground (Rule.fact "f" [ "a" ]));
  Alcotest.(check bool) "atom with var not ground" false
    (Rule.is_ground (Rule.atom "f" [ Rule.v "x" ]))

let test_rule_range_restriction () =
  Alcotest.check_raises "unbound head var"
    (Invalid_argument "Rule.rule: head variable x not bound in body") (fun () ->
      ignore (Rule.rule (Rule.atom "p" [ Rule.v "x" ]) []))

let test_fact_rejects_vars () =
  Alcotest.(check bool) "equal" true
    (Rule.atom_equal (Rule.fact "p" [ "a" ]) (Rule.atom "p" [ Rule.c "a" ]));
  Alcotest.(check bool) "var differs from const" false
    (Rule.atom_equal (Rule.atom "p" [ Rule.v "a" ]) (Rule.atom "p" [ Rule.c "a" ]))

(* ------------------------------------------------------------------ *)
(* Inference                                                           *)
(* ------------------------------------------------------------------ *)

let test_infer_direct () =
  let rules =
    [
      Rule.rule
        (Rule.atom "permit" [ Rule.v "s" ])
        [ Rule.atom "role" [ Rule.v "s"; Rule.c "clerk" ] ];
    ]
  in
  let facts = [ Rule.fact "role" [ "bob"; "clerk" ] ] in
  Alcotest.(check bool) "derives" true
    (Infer.satisfies ~rules ~facts (Rule.fact "permit" [ "bob" ]));
  Alcotest.(check bool) "does not over-derive" false
    (Infer.satisfies ~rules ~facts (Rule.fact "permit" [ "eve" ]))

let test_infer_join () =
  (* permit(S, I) :- assigned(S, R), hosted(I, R): a join on R. *)
  let rules =
    [
      Rule.rule
        (Rule.atom "permit" [ Rule.v "s"; Rule.v "i" ])
        [
          Rule.atom "assigned" [ Rule.v "s"; Rule.v "r" ];
          Rule.atom "hosted" [ Rule.v "i"; Rule.v "r" ];
        ];
    ]
  in
  let facts =
    [
      Rule.fact "assigned" [ "bob"; "east" ];
      Rule.fact "hosted" [ "db1"; "east" ];
      Rule.fact "hosted" [ "db2"; "west" ];
    ]
  in
  Alcotest.(check bool) "same region" true
    (Infer.satisfies ~rules ~facts (Rule.fact "permit" [ "bob"; "db1" ]));
  Alcotest.(check bool) "cross region denied" false
    (Infer.satisfies ~rules ~facts (Rule.fact "permit" [ "bob"; "db2" ]))

let test_infer_transitive_closure () =
  let rules =
    [
      Rule.rule
        (Rule.atom "reach" [ Rule.v "x"; Rule.v "y" ])
        [ Rule.atom "edge" [ Rule.v "x"; Rule.v "y" ] ];
      Rule.rule
        (Rule.atom "reach" [ Rule.v "x"; Rule.v "z" ])
        [
          Rule.atom "reach" [ Rule.v "x"; Rule.v "y" ];
          Rule.atom "edge" [ Rule.v "y"; Rule.v "z" ];
        ];
    ]
  in
  let facts =
    [
      Rule.fact "edge" [ "a"; "b" ];
      Rule.fact "edge" [ "b"; "c" ];
      Rule.fact "edge" [ "c"; "d" ];
    ]
  in
  let db = Infer.saturate ~rules ~facts in
  Alcotest.(check bool) "a reaches d" true
    (Infer.holds db (Rule.fact "reach" [ "a"; "d" ]));
  Alcotest.(check bool) "d reaches nothing" false
    (Infer.holds db (Rule.fact "reach" [ "d"; "a" ]));
  (* 3 edges + 6 reach pairs = 9 facts. *)
  Alcotest.(check int) "fact count" 9 (Infer.size db)

let test_infer_query_bindings () =
  let facts =
    [ Rule.fact "role" [ "bob"; "clerk" ]; Rule.fact "role" [ "amy"; "boss" ] ]
  in
  let db = Infer.saturate ~rules:[] ~facts in
  let bindings = Infer.query db (Rule.atom "role" [ Rule.v "who"; Rule.c "clerk" ]) in
  Alcotest.(check int) "one binding" 1 (List.length bindings);
  Alcotest.(check (option string)) "bob" (Some "bob")
    (List.assoc_opt "who" (List.hd bindings))

let test_infer_nonground_errors () =
  let db = Infer.saturate ~rules:[] ~facts:[] in
  Alcotest.check_raises "holds nonground"
    (Invalid_argument "Infer.holds: query atom must be ground") (fun () ->
      ignore (Infer.holds db (Rule.atom "p" [ Rule.v "x" ])));
  Alcotest.check_raises "saturate nonground fact"
    (Invalid_argument "Infer: non-ground fact (variable x)") (fun () ->
      ignore (Infer.saturate ~rules:[] ~facts:[ Rule.atom "p" [ Rule.v "x" ] ]))

let prop_infer_monotone =
  (* Adding facts never invalidates a derivation. *)
  let gen_fact =
    QCheck.Gen.(
      map2
        (fun p a -> Rule.fact (Printf.sprintf "p%d" p) [ Printf.sprintf "c%d" a ])
        (0 -- 3) (0 -- 5))
  in
  QCheck.Test.make ~name:"inference is monotone" ~count:100
    QCheck.(
      pair
        (make Gen.(list_size (1 -- 10) gen_fact))
        (make Gen.(list_size (0 -- 5) gen_fact)))
    (fun (base, extra) ->
      let rules =
        [
          Rule.rule
            (Rule.atom "goal" [ Rule.v "x" ])
            [ Rule.atom "p0" [ Rule.v "x" ]; Rule.atom "p1" [ Rule.v "x" ] ];
        ]
      in
      let derived_before = Infer.facts (Infer.saturate ~rules ~facts:base) in
      let db_after = Infer.saturate ~rules ~facts:(base @ extra) in
      List.for_all (fun f -> Infer.holds db_after f) derived_before)

(* ------------------------------------------------------------------ *)
(* Negation (stratified)                                               *)
(* ------------------------------------------------------------------ *)

let test_negation_basic () =
  (* permit(S) :- role(S, clerk), not suspended(S). *)
  let rules =
    [
      Rule.rule_literals
        (Rule.atom "permit" [ Rule.v "s" ])
        [
          Rule.Pos (Rule.atom "role" [ Rule.v "s"; Rule.c "clerk" ]);
          Rule.Neg (Rule.atom "suspended" [ Rule.v "s" ]);
        ];
    ]
  in
  let base = [ Rule.fact "role" [ "bob"; "clerk" ]; Rule.fact "role" [ "amy"; "clerk" ] ] in
  let with_suspension = Rule.fact "suspended" [ "amy" ] :: base in
  Alcotest.(check bool) "bob permitted" true
    (Infer.satisfies ~rules ~facts:with_suspension (Rule.fact "permit" [ "bob" ]));
  Alcotest.(check bool) "amy suspended" false
    (Infer.satisfies ~rules ~facts:with_suspension (Rule.fact "permit" [ "amy" ]));
  Alcotest.(check bool) "amy fine without suspension" true
    (Infer.satisfies ~rules ~facts:base (Rule.fact "permit" [ "amy" ]))

let test_negation_stratified_through_derivation () =
  (* suspended is itself derived; permit sits a stratum above it. *)
  let rules =
    [
      Rule.rule
        (Rule.atom "suspended" [ Rule.v "s" ])
        [ Rule.atom "flagged" [ Rule.v "s"; Rule.c "fraud" ] ];
      Rule.rule_literals
        (Rule.atom "permit" [ Rule.v "s" ])
        [
          Rule.Pos (Rule.atom "role" [ Rule.v "s"; Rule.c "clerk" ]);
          Rule.Neg (Rule.atom "suspended" [ Rule.v "s" ]);
        ];
    ]
  in
  let facts =
    [
      Rule.fact "role" [ "bob"; "clerk" ];
      Rule.fact "role" [ "amy"; "clerk" ];
      Rule.fact "flagged" [ "amy"; "fraud" ];
    ]
  in
  Alcotest.(check bool) "bob permitted" true
    (Infer.satisfies ~rules ~facts (Rule.fact "permit" [ "bob" ]));
  Alcotest.(check bool) "amy denied via derived suspension" false
    (Infer.satisfies ~rules ~facts (Rule.fact "permit" [ "amy" ]))

let test_negation_unstratifiable_rejected () =
  let rules =
    [
      Rule.rule_literals
        (Rule.atom "p" [ Rule.v "x" ])
        [
          Rule.Pos (Rule.atom "base" [ Rule.v "x" ]);
          Rule.Neg (Rule.atom "p" [ Rule.v "x" ]);
        ];
    ]
  in
  Alcotest.check_raises "negation cycle"
    (Invalid_argument "Infer: rules are not stratifiable (negation cycle)")
    (fun () ->
      ignore (Infer.saturate ~rules ~facts:[ Rule.fact "base" [ "a" ] ]))

let test_negation_safety () =
  (* A negated literal may not introduce new variables. *)
  Alcotest.check_raises "unsafe negation"
    (Invalid_argument "Rule.rule: negated variable y not bound in body")
    (fun () ->
      ignore
        (Rule.rule_literals
           (Rule.atom "p" [ Rule.v "x" ])
           [
             Rule.Pos (Rule.atom "q" [ Rule.v "x" ]);
             Rule.Neg (Rule.atom "r" [ Rule.v "y" ]);
           ]))

let test_negation_in_policy () =
  (* A policy with a suspension list: the proof machinery sees denials for
     suspended subjects only. *)
  let policy =
    Policy.create ~domain:"d"
      [
        Rule.rule_literals
          (Rule.atom "permit" [ Rule.v "s"; Rule.v "a"; Rule.v "i" ])
          [
            Rule.Pos (Rule.atom "role" [ Rule.v "s"; Rule.c "clerk" ]);
            Rule.Pos (Rule.atom "req_action" [ Rule.v "a" ]);
            Rule.Pos (Rule.atom "req_item" [ Rule.v "i" ]);
            Rule.Neg (Rule.atom "suspended" [ Rule.v "s" ]);
          ];
        Rule.rule (Rule.fact "suspended" [ "amy" ]) [];
      ]
  in
  let facts subject =
    [
      Rule.fact "role" [ subject; "clerk" ];
      Rule.fact "req_action" [ "read" ];
      Rule.fact "req_item" [ "x" ];
    ]
  in
  Alcotest.(check bool) "bob permitted" true
    (Policy.permits policy ~facts:(facts "bob") ~subject:"bob" ~action:"read" ~item:"x");
  Alcotest.(check bool) "amy denied" false
    (Policy.permits policy ~facts:(facts "amy") ~subject:"amy" ~action:"read" ~item:"x")

(* ------------------------------------------------------------------ *)
(* Credentials                                                         *)
(* ------------------------------------------------------------------ *)

let cred ?(issued_at = 0.) ?(expires_at = 100.) ?(issuer = "ca") () =
  Credential.make ~id:"c1" ~subject:"bob" ~issuer ~kind:Credential.Attribute
    ~facts:[ Rule.fact "role" [ "bob"; "clerk" ] ]
    ~issued_at ~expires_at

let test_credential_window () =
  let c = cred () in
  Alcotest.(check bool) "valid inside" true
    (Credential.syntactically_valid c ~at:50. = Ok ());
  Alcotest.(check bool) "not yet valid" true
    (Credential.syntactically_valid c ~at:(-1.) = Error Credential.Not_yet_valid);
  Alcotest.(check bool) "expired at omega" true
    (Credential.syntactically_valid c ~at:100. = Error Credential.Expired)

let test_credential_forgery () =
  let c = cred () in
  Alcotest.(check bool) "genuine" true (Credential.signature_valid c);
  let forged = Credential.forge c ~facts:[ Rule.fact "role" [ "bob"; "admin" ] ] in
  Alcotest.(check bool) "forged" false (Credential.signature_valid forged);
  Alcotest.(check bool) "forgery caught" true
    (Credential.syntactically_valid forged ~at:50.
    = Error Credential.Bad_signature)

let test_credential_bad_interval () =
  Alcotest.check_raises "empty interval"
    (Invalid_argument "Credential.make: expires_at must follow issued_at")
    (fun () -> ignore (cred ~issued_at:10. ~expires_at:10. ()))

(* ------------------------------------------------------------------ *)
(* Certificate authorities                                             *)
(* ------------------------------------------------------------------ *)

let test_ca_lifecycle () =
  let ca = Ca.create "corp" in
  let c = Ca.issue ca ~id:"bob-role" ~subject:"bob" ~facts:[] ~now:0. ~ttl:100. in
  Alcotest.(check bool) "good" true (Ca.status ca "bob-role" ~at:10. = Ca.Good);
  Alcotest.(check bool) "unknown" true (Ca.status ca "nope" ~at:10. = Ca.Unknown);
  Alcotest.(check bool) "semantically valid" true
    (Ca.semantically_valid ca c ~at:10.);
  Ca.revoke ca "bob-role" ~at:50.;
  Alcotest.(check bool) "still good before" true
    (Ca.status ca "bob-role" ~at:49.9 = Ca.Good);
  Alcotest.(check bool) "revoked after" true
    (Ca.status ca "bob-role" ~at:50. = Ca.Revoked 50.);
  Alcotest.(check bool) "semantically invalid" false
    (Ca.semantically_valid ca c ~at:60.);
  Alcotest.(check int) "issued count" 1 (Ca.issued_count ca)

let test_ca_revoke_unknown () =
  let ca = Ca.create "corp" in
  Alcotest.check_raises "unknown id"
    (Invalid_argument "Ca.revoke: corp never issued ghost") (fun () ->
      Ca.revoke ca "ghost" ~at:1.)

let test_ca_double_revoke_keeps_earlier () =
  let ca = Ca.create "corp" in
  ignore (Ca.issue ca ~id:"x" ~subject:"s" ~facts:[] ~now:0. ~ttl:100.);
  Ca.revoke ca "x" ~at:30.;
  Ca.revoke ca "x" ~at:60.;
  Alcotest.(check bool) "earlier wins" true (Ca.status ca "x" ~at:40. = Ca.Revoked 30.)

(* ------------------------------------------------------------------ *)
(* Policies, admin, replicas                                           *)
(* ------------------------------------------------------------------ *)

let clerk_policy ?accept_capabilities () =
  Policy.create ?accept_capabilities ~domain:"app"
    [
      Rule.rule
        (Rule.atom "permit" [ Rule.v "s"; Rule.v "a"; Rule.v "i" ])
        [
          Rule.atom "role" [ Rule.v "s"; Rule.c "clerk" ];
          Rule.atom "req_action" [ Rule.v "a" ];
          Rule.atom "req_item" [ Rule.v "i" ];
        ];
    ]

let test_policy_permits () =
  let p = clerk_policy () in
  let facts =
    [
      Rule.fact "role" [ "bob"; "clerk" ];
      Rule.fact "req_action" [ "read" ];
      Rule.fact "req_item" [ "db1" ];
    ]
  in
  Alcotest.(check bool) "grant" true
    (Policy.permits p ~facts ~subject:"bob" ~action:"read" ~item:"db1");
  Alcotest.(check bool) "deny other subject" false
    (Policy.permits p ~facts ~subject:"eve" ~action:"read" ~item:"db1")

let test_policy_capabilities_toggle () =
  let facts = [ Policy.capability_fact ~subject:"bob" ~action:"read" ~item:"db1" ] in
  let open_p = clerk_policy () in
  let closed_p = clerk_policy ~accept_capabilities:false () in
  Alcotest.(check bool) "capability accepted" true
    (Policy.permits open_p ~facts ~subject:"bob" ~action:"read" ~item:"db1");
  Alcotest.(check bool) "capability refused" false
    (Policy.permits closed_p ~facts ~subject:"bob" ~action:"read" ~item:"db1")

let test_policy_permits_all () =
  let p = clerk_policy () in
  let facts =
    [
      Rule.fact "role" [ "bob"; "clerk" ];
      Rule.fact "req_action" [ "read" ];
      Rule.fact "req_item" [ "db1" ];
      (* db2 has no req_item fact, so its goal cannot derive. *)
    ]
  in
  Alcotest.(check (list string))
    "denied items" [ "db2" ]
    (Policy.permits_all p ~facts ~subject:"bob" ~action:"read"
       ~items:[ "db1"; "db2" ])

let test_policy_versioning () =
  let p = clerk_policy () in
  Alcotest.(check int) "v1" 1 p.Policy.version;
  let p2 = Policy.amend p [] in
  Alcotest.(check int) "v2" 2 p2.Policy.version;
  Alcotest.(check bool) "flag inherited" true p2.Policy.accept_capabilities;
  let p3 = Policy.amend ~accept_capabilities:false p2 [] in
  Alcotest.(check bool) "flag overridden" false p3.Policy.accept_capabilities

let test_admin_history () =
  let a = Admin.create ~domain:"app" [] in
  Alcotest.(check int) "starts at 1" 1 (Admin.latest_version a);
  let _v2 = Admin.publish a [] in
  let v3 = Admin.publish a [] in
  Alcotest.(check int) "latest" 3 (Admin.latest_version a);
  Alcotest.(check int) "history" 3 (Admin.history_length a);
  Alcotest.(check int) "get v2" 2 ((Admin.get a 2 |> Option.get).Policy.version);
  Alcotest.(check bool) "latest body" true (Admin.latest a == v3);
  Alcotest.(check bool) "missing version" true (Admin.get a 99 = None)

let test_replica_monotone () =
  let r = Replica.create () in
  let a = Admin.create ~domain:"app" [] in
  let v1 = Admin.latest a in
  let v2 = Admin.publish a [] in
  Alcotest.(check bool) "install v2" true (Replica.install r v2 = `Installed);
  Alcotest.(check bool) "v1 is stale" true (Replica.install r v1 = `Stale);
  Alcotest.(check (option int)) "holds v2" (Some 2) (Replica.version r ~domain:"app");
  Alcotest.(check (list string)) "domains" [ "app" ] (Replica.domains r)

(* ------------------------------------------------------------------ *)
(* Policy analysis                                                     *)
(* ------------------------------------------------------------------ *)

module Analysis = Cloudtx_policy.Analysis

let analysis_probes =
  Analysis.probe_space ~subjects:[ "bob"; "eve" ] ~actions:[ "read"; "write" ]
    ~items:[ "db1" ]
    ~facts_for:(fun subject ->
      if String.equal subject "bob" then [ Rule.fact "role" [ subject; "clerk" ] ]
      else [])

let clerk_all =
  Policy.create ~domain:"d"
    [
      Rule.rule
        (Rule.atom "permit" [ Rule.v "s"; Rule.v "a"; Rule.v "i" ])
        [
          Rule.atom "role" [ Rule.v "s"; Rule.c "clerk" ];
          Rule.atom "req_action" [ Rule.v "a" ];
          Rule.atom "req_item" [ Rule.v "i" ];
        ];
    ]

let clerk_read_only =
  Policy.create ~domain:"d"
    [
      Rule.rule
        (Rule.atom "permit" [ Rule.v "s"; Rule.c "read"; Rule.v "i" ])
        [
          Rule.atom "role" [ Rule.v "s"; Rule.c "clerk" ];
          Rule.atom "req_item" [ Rule.v "i" ];
        ];
    ]

let everyone_reads =
  Policy.create ~domain:"d"
    [
      Rule.rule
        (Rule.atom "permit" [ Rule.v "s"; Rule.c "read"; Rule.v "i" ])
        [ Rule.atom "req_subject" [ Rule.v "s" ]; Rule.atom "req_item" [ Rule.v "i" ] ];
    ]

let test_analysis_equivalent () =
  Alcotest.(check string) "same policy" "equivalent"
    (Analysis.verdict_name
       (Analysis.compare_policies ~probes:analysis_probes clerk_all clerk_all))

let test_analysis_tightened () =
  match Analysis.compare_policies ~probes:analysis_probes clerk_all clerk_read_only with
  | Analysis.Tightened lost ->
    (* Bob loses write on db1; eve had nothing to lose. *)
    Alcotest.(check int) "one lost access" 1 (List.length lost);
    let p = List.hd lost in
    Alcotest.(check string) "who" "bob" p.Analysis.subject;
    Alcotest.(check string) "what" "write" p.Analysis.action
  | v -> Alcotest.failf "expected Tightened, got %s" (Analysis.verdict_name v)

let test_analysis_relaxed_and_mixed () =
  (match Analysis.compare_policies ~probes:analysis_probes clerk_read_only everyone_reads with
  | Analysis.Relaxed gained ->
    (* Eve gains read. *)
    Alcotest.(check bool) "eve gains" true
      (List.exists (fun p -> p.Analysis.subject = "eve") gained)
  | v -> Alcotest.failf "expected Relaxed, got %s" (Analysis.verdict_name v));
  match Analysis.compare_policies ~probes:analysis_probes clerk_all everyone_reads with
  | Analysis.Mixed { lost; gained } ->
    Alcotest.(check bool) "bob loses write" true
      (List.exists
         (fun p -> p.Analysis.subject = "bob" && p.Analysis.action = "write")
         lost);
    Alcotest.(check bool) "eve gains read" true
      (List.exists (fun p -> p.Analysis.subject = "eve") gained)
  | v -> Alcotest.failf "expected Mixed, got %s" (Analysis.verdict_name v)

(* ------------------------------------------------------------------ *)
(* Proofs of authorization                                             *)
(* ------------------------------------------------------------------ *)

let proof_env ?(cas = []) ?(servers = []) ?(context = []) () =
  {
    Proof.find_ca = (fun n -> List.assoc_opt n cas);
    trusted_server = (fun n -> List.mem n servers);
    context = (fun () -> context);
  }

let request = { Proof.subject = "bob"; action = "read"; items = [ "db1" ] }

let test_proof_grant () =
  let ca = Ca.create "corp" in
  let c =
    Ca.issue ca ~id:"bob-role" ~subject:"bob"
      ~facts:[ Rule.fact "role" [ "bob"; "clerk" ] ]
      ~now:0. ~ttl:100.
  in
  let p =
    Proof.evaluate ~query_id:"q1" ~server:"s1" ~policy:(clerk_policy ())
      ~creds:[ c ]
      ~env:(proof_env ~cas:[ ("corp", ca) ] ())
      ~at:10. request
  in
  Alcotest.(check bool) "granted" true p.Proof.result;
  Alcotest.(check int) "no failures" 0 (List.length p.Proof.failures);
  Alcotest.(check int) "version recorded" 1 p.Proof.policy_version;
  Alcotest.(check string) "domain recorded" "app" p.Proof.domain

let test_proof_denied_without_role () =
  let p =
    Proof.evaluate ~query_id:"q1" ~server:"s1" ~policy:(clerk_policy ())
      ~creds:[] ~env:(proof_env ()) ~at:10. request
  in
  Alcotest.(check bool) "denied" false p.Proof.result;
  Alcotest.(check bool) "denied item named" true
    (List.exists
       (function Proof.Denied "db1" -> true | _ -> false)
       p.Proof.failures)

let test_proof_revoked_credential () =
  let ca = Ca.create "corp" in
  let c =
    Ca.issue ca ~id:"bob-role" ~subject:"bob"
      ~facts:[ Rule.fact "role" [ "bob"; "clerk" ] ]
      ~now:0. ~ttl:100.
  in
  Ca.revoke ca "bob-role" ~at:5.;
  let p =
    Proof.evaluate ~query_id:"q1" ~server:"s1" ~policy:(clerk_policy ())
      ~creds:[ c ]
      ~env:(proof_env ~cas:[ ("corp", ca) ] ())
      ~at:10. request
  in
  Alcotest.(check bool) "revocation invalidates" false p.Proof.result;
  Alcotest.(check bool) "revoked failure" true
    (List.exists
       (function Proof.Revoked "bob-role" -> true | _ -> false)
       p.Proof.failures)

let test_proof_expired_credential_fails_whole_proof () =
  (* Strictness: even with context facts that would grant on their own, an
     invalid presented credential makes the proof FALSE. *)
  let ca = Ca.create "corp" in
  let stale = Ca.issue ca ~id:"old" ~subject:"bob" ~facts:[] ~now:0. ~ttl:1. in
  let context = [ Rule.fact "role" [ "bob"; "clerk" ] ] in
  let p =
    Proof.evaluate ~query_id:"q1" ~server:"s1" ~policy:(clerk_policy ())
      ~creds:[ stale ]
      ~env:(proof_env ~cas:[ ("corp", ca) ] ~context ())
      ~at:10. request
  in
  Alcotest.(check bool) "strict" false p.Proof.result

let test_proof_untrusted_issuer () =
  let c =
    Credential.make ~id:"x" ~subject:"bob" ~issuer:"shady"
      ~kind:Credential.Attribute
      ~facts:[ Rule.fact "role" [ "bob"; "clerk" ] ]
      ~issued_at:0. ~expires_at:100.
  in
  let p =
    Proof.evaluate ~query_id:"q1" ~server:"s1" ~policy:(clerk_policy ())
      ~creds:[ c ] ~env:(proof_env ()) ~at:10. request
  in
  Alcotest.(check bool) "untrusted" false p.Proof.result;
  Alcotest.(check bool) "failure kind" true
    (List.exists
       (function Proof.Untrusted_issuer "x" -> true | _ -> false)
       p.Proof.failures)

let test_proof_capability_from_server () =
  (* Bob's read credential: issued by a trusted cloud server, it grants
     via the capability rule without any role fact. *)
  let access =
    Credential.make ~id:"bob-read" ~subject:"bob" ~issuer:"s2"
      ~kind:(Credential.Access { action = "read"; item = "db1" })
      ~facts:[] ~issued_at:0. ~expires_at:100.
  in
  let env = proof_env ~servers:[ "s2" ] () in
  let p =
    Proof.evaluate ~query_id:"q1" ~server:"s1" ~policy:(clerk_policy ())
      ~creds:[ access ] ~env ~at:10. request
  in
  Alcotest.(check bool) "capability grants" true p.Proof.result;
  (* Same credential under a policy that stopped accepting capabilities. *)
  let strict = clerk_policy ~accept_capabilities:false () in
  let p2 =
    Proof.evaluate ~query_id:"q1" ~server:"s1" ~policy:strict ~creds:[ access ]
      ~env ~at:10. request
  in
  Alcotest.(check bool) "tightened policy refuses" false p2.Proof.result

let test_proof_context_facts () =
  let context = [ Rule.fact "role" [ "bob"; "clerk" ] ] in
  let p =
    Proof.evaluate ~query_id:"q1" ~server:"s1" ~policy:(clerk_policy ())
      ~creds:[] ~env:(proof_env ~context ()) ~at:10. request
  in
  Alcotest.(check bool) "context grants" true p.Proof.result

(* ------------------------------------------------------------------ *)
(* Compiled engine against the naive reference                         *)
(* ------------------------------------------------------------------ *)

(* The engine [Infer] used before programs were compiled: naive
   bottom-up evaluation over a set of (predicate, constants) pairs,
   stratum by stratum, re-joining everything until nothing changes.  Kept
   here as the reference the compiled, semi-naive engine must match. *)
module Reference = struct
  module Fact_set = Set.Make (struct
    type t = string * string list

    let compare = compare
  end)

  let key_of_fact (a : Rule.fact) =
    ( a.Rule.pred,
      List.map
        (function
          | Rule.Const s -> s
          | Rule.Var x ->
            invalid_arg (Printf.sprintf "Infer: non-ground fact (variable %s)" x))
        a.Rule.args )

  let match_atom env (atom : Rule.atom) ((pred, args) : string * string list) =
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
        (Some env) atom.Rule.args args

  let instantiate env (atom : Rule.atom) =
    {
      atom with
      Rule.args =
        List.map
          (function
            | Rule.Const _ as t -> t
            | Rule.Var x -> Rule.Const (List.assoc x env))
          atom.Rule.args;
    }

  let solve db (r : Rule.t) =
    let rec positives env = function
      | [] -> [ env ]
      | atom :: rest ->
        Fact_set.fold
          (fun fact acc ->
            match match_atom env atom fact with
            | None -> acc
            | Some env' -> positives env' rest @ acc)
          db []
    in
    List.filter
      (fun env ->
        List.for_all
          (fun neg -> not (Fact_set.mem (key_of_fact (instantiate env neg)) db))
          (Rule.negative_body r))
      (positives [] (Rule.positive_body r))

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
          List.iter (fun (a : Rule.atom) -> bump (get a.Rule.pred)) (Rule.positive_body r);
          List.iter
            (fun (a : Rule.atom) -> bump (get a.Rule.pred + 1))
            (Rule.negative_body r))
        rules
    done;
    let tagged = List.map (fun (r : Rule.t) -> (get r.Rule.head.Rule.pred, r)) rules in
    let max_stratum = List.fold_left (fun acc (s, _) -> max acc s) 0 tagged in
    List.init (max_stratum + 1) (fun s ->
        List.filter_map (fun (s', r) -> if s = s' then Some r else None) tagged)

  let facts ~rules ~facts =
    let db = ref (List.fold_left (fun db f -> Fact_set.add (key_of_fact f) db) Fact_set.empty facts) in
    List.iter
      (fun stratum ->
        let changed = ref true in
        while !changed do
          changed := false;
          List.iter
            (fun (r : Rule.t) ->
              List.iter
                (fun env ->
                  let derived = key_of_fact (instantiate env r.Rule.head) in
                  if not (Fact_set.mem derived !db) then begin
                    db := Fact_set.add derived !db;
                    changed := true
                  end)
                (solve !db r))
            stratum
        done)
      (stratify rules);
    Fact_set.fold (fun (pred, args) acc -> Rule.fact pred args :: acc) !db [] |> List.rev
end

(* Random stratified programs.  Each predicate has a level; a rule may
   use predicates of its head's level or below positively (so recursion
   happens) and strictly below negatively, which makes every program
   stratifiable.  [e] appears with two arities. *)
let program_preds = [| ("e", 2); ("e", 1); ("f", 1); ("p", 2); ("q", 1); ("r", 2) |]
let pred_level = function "e" | "f" -> 0 | "p" -> 1 | "q" -> 2 | _ -> 3
let program_consts = [ "a"; "b"; "c" ]

let gen_rule =
  let open QCheck.Gen in
  let term_from vars =
    if vars = [] then map Rule.c (oneofl program_consts)
    else
      frequency
        [ (3, map Rule.v (oneofl vars)); (1, map Rule.c (oneofl program_consts)) ]
  in
  let atom_of (pred, arity) term = map (Rule.atom pred) (list_repeat arity term) in
  let below level strict =
    List.filter
      (fun (p, _) -> if strict then pred_level p < level else pred_level p <= level)
      (Array.to_list program_preds)
  in
  let* head_pred = oneofl [ ("p", 2); ("q", 1); ("r", 2); ("e", 2) ] in
  let level = pred_level (fst head_pred) in
  let* n_pos = frequency [ (1, return 0); (6, 1 -- 3) ] in
  let* positives =
    list_repeat n_pos
      (let* pred = oneofl (below level false) in
       atom_of pred
         (frequency
            [ (4, map Rule.v (oneofl [ "x"; "y"; "z" ])); (1, map Rule.c (oneofl program_consts)) ]))
  in
  let vars =
    List.sort_uniq String.compare
      (List.concat_map
         (fun (a : Rule.atom) ->
           List.filter_map (function Rule.Var x -> Some x | Rule.Const _ -> None) a.Rule.args)
         positives)
  in
  let* head = atom_of head_pred (term_from vars) in
  let* negatives =
    match below level true with
    | [] -> return []
    | preds ->
      let* n_neg = frequency [ (2, return 0); (1, return 1) ] in
      list_repeat n_neg (oneofl preds >>= fun pred -> atom_of pred (term_from vars))
  in
  return
    (Rule.rule_literals head
       (List.map (fun a -> Rule.Pos a) positives @ List.map (fun a -> Rule.Neg a) negatives))

let gen_base_fact =
  let open QCheck.Gen in
  let* pred, arity = oneofl (Array.to_list program_preds) in
  map (Rule.fact pred) (list_repeat arity (oneofl ("d" :: program_consts)))

let arb_program =
  QCheck.make
    ~print:(fun (rules, facts) ->
      Cloudtx_policy.Datalog.print_program rules
      ^ "facts: "
      ^ String.concat " " (List.map Rule.atom_to_string facts))
    QCheck.Gen.(pair (list_size (1 -- 6) gen_rule) (list_size (0 -- 12) gen_base_fact))

let reach_rules =
  [
    Rule.rule
      (Rule.atom "reach" [ Rule.v "x"; Rule.v "y" ])
      [ Rule.atom "edge" [ Rule.v "x"; Rule.v "y" ] ];
    Rule.rule
      (Rule.atom "reach" [ Rule.v "x"; Rule.v "z" ])
      [ Rule.atom "reach" [ Rule.v "x"; Rule.v "y" ]; Rule.atom "edge" [ Rule.v "y"; Rule.v "z" ] ];
    Rule.rule_literals
      (Rule.atom "cut" [ Rule.v "x"; Rule.v "y" ])
      [
        Rule.Pos (Rule.atom "reach" [ Rule.v "x"; Rule.v "y" ]);
        Rule.Neg (Rule.atom "reach" [ Rule.v "y"; Rule.v "x" ]);
      ];
  ]

let prop_compiled_matches_reference =
  QCheck.Test.make ~name:"compiled engine derives what the naive reference derives"
    ~count:500 arb_program (fun (rules, facts) ->
      let expected = Reference.facts ~rules ~facts in
      let db = Infer.saturate ~rules ~facts in
      List.equal Rule.atom_equal expected (Infer.facts db)
      && Infer.size db = List.length expected
      && List.for_all (Infer.holds db) expected)

let test_compiled_reach_chain () =
  (* A chain with a cycle at the end: recursion over many rounds, then
     negation over the recursive relation. *)
  let facts =
    Rule.fact "edge" [ "n9"; "n7" ]
    :: List.init 9 (fun i ->
           Rule.fact "edge" [ Printf.sprintf "n%d" i; Printf.sprintf "n%d" (i + 1) ])
  in
  let expected = Reference.facts ~rules:reach_rules ~facts in
  Alcotest.(check (list string))
    "same facts"
    (List.map Rule.atom_to_string expected)
    (List.map Rule.atom_to_string (Infer.facts (Infer.saturate ~rules:reach_rules ~facts)))

let negation_cycle =
  [
    Rule.rule_literals
      (Rule.atom "permit" [ Rule.v "s"; Rule.v "a"; Rule.v "i" ])
      [
        Rule.Pos (Rule.atom "req_subject" [ Rule.v "s" ]);
        Rule.Pos (Rule.atom "req_action" [ Rule.v "a" ]);
        Rule.Pos (Rule.atom "req_item" [ Rule.v "i" ]);
        Rule.Neg (Rule.atom "permit" [ Rule.v "s"; Rule.v "a"; Rule.v "i" ]);
      ];
  ]

let test_negation_cycle_raised_at_evaluation () =
  let cycle_error =
    Invalid_argument "Infer: rules are not stratifiable (negation cycle)"
  in
  Alcotest.check_raises "saturate" cycle_error (fun () ->
      ignore (Infer.saturate ~rules:negation_cycle ~facts:[]));
  (* Creating (and decoding) a policy never compiles it... *)
  let policy = Policy.create ~domain:"app" negation_cycle in
  let evaluate () =
    ignore
      (Proof.evaluate ~query_id:"q1" ~server:"s1" ~policy ~creds:[]
         ~env:(proof_env ()) ~at:10. request)
  in
  (* ...the first evaluation does, and a failed compilation is not kept. *)
  Alcotest.check_raises "first evaluation" cycle_error evaluate;
  Alcotest.check_raises "second evaluation" cycle_error evaluate

(* ------------------------------------------------------------------ *)
(* Signatures are checked on every evaluation                          *)
(* ------------------------------------------------------------------ *)

let test_signature_checked_every_evaluation () =
  let ca = Ca.create "corp" in
  let genuine =
    Ca.issue ca ~id:"bob-role" ~subject:"bob"
      ~facts:[ Rule.fact "role" [ "bob"; "clerk" ] ]
      ~now:0. ~ttl:100.
  in
  let env = proof_env ~cas:[ ("corp", ca) ] () in
  let policy = clerk_policy () in
  let evaluate cred =
    Proof.evaluate ~query_id:"q1" ~server:"s1" ~policy ~creds:[ cred ] ~env ~at:10.
      request
  in
  let tampered =
    [
      ( "forged",
        Credential.forge genuine
          ~facts:[ Rule.fact "role" [ "bob"; "clerk" ]; Rule.fact "role" [ "bob"; "admin" ] ] );
      ( "wire facts altered",
        Credential.of_wire ~id:genuine.Credential.id ~subject:"bob" ~issuer:"corp"
          ~kind:Credential.Attribute
          ~facts:[ Rule.fact "role" [ "bob"; "clerk" ]; Rule.fact "role" [ "bob"; "boss" ] ]
          ~issued_at:genuine.Credential.issued_at ~expires_at:genuine.Credential.expires_at
          ~signature:genuine.Credential.signature );
      ( "wire issued_at altered",
        Credential.of_wire ~id:genuine.Credential.id ~subject:"bob" ~issuer:"corp"
          ~kind:Credential.Attribute ~facts:genuine.Credential.facts
          ~issued_at:(genuine.Credential.issued_at +. 1.)
          ~expires_at:genuine.Credential.expires_at
          ~signature:genuine.Credential.signature );
    ]
  in
  for round = 1 to 3 do
    Alcotest.(check bool) (Printf.sprintf "genuine grants, round %d" round) true
      (evaluate genuine).Proof.result;
    List.iter
      (fun (what, cred) ->
        let proof = evaluate cred in
        let name = Printf.sprintf "%s, round %d" what round in
        Alcotest.(check bool) (name ^ ": proof false") false proof.Proof.result;
        Alcotest.(check bool) (name ^ ": bad signature") true
          (List.mem
             (Proof.Syntactic ("bob-role", Credential.Bad_signature))
             proof.Proof.failures))
      tampered
  done

(* Atoms whose constants exercise every quoting case of the printer. *)
let gen_atom =
  let open QCheck.Gen in
  let odd = [ ""; "not"; "Upper"; "a b"; "x,y"; "q\"uote"; "line\nbreak"; "-dash"; "_u"; "é"; "a|b"; "(p)" ] in
  let ident = string_size ~gen:(oneofl [ 'a'; 'b'; 'Z'; '_'; '-'; '0' ]) (0 -- 6) in
  let const = frequency [ (2, oneofl odd); (3, ident); (1, string_size ~gen:printable (0 -- 40)) ] in
  let term = frequency [ (4, map Rule.c const); (1, map Rule.v (oneofl [ "x"; "who"; "y2" ])) ] in
  map2 Rule.atom (oneofl [ "p"; "role"; "very_long_predicate_name" ]) (list_size (0 -- 8) term)

(* The [Format] atom printer that credential payloads and rule texts
   were printed with before atoms went through a buffer. *)
let format_atom a =
  let pp_term ppf = function
    | Rule.Var x -> Format.fprintf ppf "%s" (String.capitalize_ascii x)
    | Rule.Const c ->
      let ident_char ch =
        (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || (ch >= '0' && ch <= '9')
        || ch = '_' || ch = '-'
      in
      let needs_quoting =
        String.length c = 0
        || ((not (c.[0] >= 'a' && c.[0] <= 'z')) && c.[0] <> '_')
        || (not (String.for_all ident_char c))
        || String.equal c "not"
      in
      if needs_quoting then Format.fprintf ppf "\"%s\"" c else Format.fprintf ppf "%s" c
  in
  Format.asprintf "%s(%a)" a.Rule.pred
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_term)
    a.Rule.args

let arb_atom = QCheck.make ~print:format_atom gen_atom

let prop_atom_printer_matches_format =
  QCheck.Test.make ~name:"buffer atom printer = Format printer" ~count:1000 arb_atom
    (fun a ->
      let expected = format_atom a in
      String.equal (Rule.atom_to_string a) expected
      && String.equal (Format.asprintf "%a" Rule.pp_atom a) expected)

(* The signature as the Format-based payload printer computed it. *)
let format_signature ~id ~subject ~issuer ~kind ~facts ~issued_at ~expires_at =
  let kind_tag =
    match kind with
    | Credential.Attribute -> "attr"
    | Credential.Access { action; item } -> Printf.sprintf "access:%s:%s" action item
  in
  let body =
    String.concat "|"
      (id :: subject :: issuer :: kind_tag :: string_of_float issued_at
      :: string_of_float expires_at
      :: List.map format_atom facts)
  in
  Digest.to_hex (Digest.string (issuer ^ "##" ^ body))

let prop_signature_bytes_unchanged =
  let open QCheck.Gen in
  let word = oneofl [ "c1"; "bob"; "corp|ca"; ""; "s-1"; "a:b" ] in
  let ground_atom =
    map2 Rule.fact (oneofl [ "role"; "p" ])
      (list_size (0 -- 3) (oneofl [ "clerk"; "not"; "Upper"; "a b"; ""; "x,y" ]))
  in
  let kind =
    frequency
      [
        (1, return Credential.Attribute);
        (1, map2 (fun action item -> Credential.Access { action; item }) word word);
      ]
  in
  let gen =
    map3
      (fun (id, subject, issuer) (kind, facts) (issued_at, ttl) ->
        (id, subject, issuer, kind, facts, issued_at, issued_at +. ttl))
      (triple word word word)
      (pair kind (list_size (0 -- 4) ground_atom))
      (pair (float_range (-5.) 1e6) (float_range 0.5 1e9))
  in
  QCheck.Test.make ~name:"credential signatures byte-identical to the Format payload"
    ~count:500 (QCheck.make gen)
    (fun (id, subject, issuer, kind, facts, issued_at, expires_at) ->
      let c = Credential.make ~id ~subject ~issuer ~kind ~facts ~issued_at ~expires_at in
      String.equal c.Credential.signature
        (format_signature ~id ~subject ~issuer ~kind ~facts ~issued_at ~expires_at)
      && Credential.signature_valid c)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "policy"
    [
      ( "rules",
        [
          Alcotest.test_case "construction" `Quick test_rule_construction;
          Alcotest.test_case "range restriction" `Quick test_rule_range_restriction;
          Alcotest.test_case "fact equality" `Quick test_fact_rejects_vars;
        ] );
      ( "inference",
        [
          Alcotest.test_case "direct" `Quick test_infer_direct;
          Alcotest.test_case "join" `Quick test_infer_join;
          Alcotest.test_case "transitive closure" `Quick
            test_infer_transitive_closure;
          Alcotest.test_case "query bindings" `Quick test_infer_query_bindings;
          Alcotest.test_case "non-ground errors" `Quick test_infer_nonground_errors;
          qc prop_infer_monotone;
        ] );
      ( "negation",
        [
          Alcotest.test_case "basic" `Quick test_negation_basic;
          Alcotest.test_case "through derivation" `Quick
            test_negation_stratified_through_derivation;
          Alcotest.test_case "unstratifiable rejected" `Quick
            test_negation_unstratifiable_rejected;
          Alcotest.test_case "safety" `Quick test_negation_safety;
          Alcotest.test_case "in policy" `Quick test_negation_in_policy;
        ] );
      ( "compiled",
        [
          qc prop_compiled_matches_reference;
          Alcotest.test_case "reach chain" `Quick test_compiled_reach_chain;
          Alcotest.test_case "negation cycle raised at evaluation" `Quick
            test_negation_cycle_raised_at_evaluation;
        ] );
      ( "credentials",
        [
          Alcotest.test_case "validity window" `Quick test_credential_window;
          Alcotest.test_case "forgery" `Quick test_credential_forgery;
          Alcotest.test_case "bad interval" `Quick test_credential_bad_interval;
          Alcotest.test_case "checked on every evaluation" `Quick
            test_signature_checked_every_evaluation;
          qc prop_atom_printer_matches_format;
          qc prop_signature_bytes_unchanged;
        ] );
      ( "ca",
        [
          Alcotest.test_case "lifecycle" `Quick test_ca_lifecycle;
          Alcotest.test_case "revoke unknown" `Quick test_ca_revoke_unknown;
          Alcotest.test_case "double revoke" `Quick
            test_ca_double_revoke_keeps_earlier;
        ] );
      ( "policy",
        [
          Alcotest.test_case "permits" `Quick test_policy_permits;
          Alcotest.test_case "capability toggle" `Quick
            test_policy_capabilities_toggle;
          Alcotest.test_case "permits_all" `Quick test_policy_permits_all;
          Alcotest.test_case "versioning" `Quick test_policy_versioning;
          Alcotest.test_case "admin history" `Quick test_admin_history;
          Alcotest.test_case "replica monotone" `Quick test_replica_monotone;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "equivalent" `Quick test_analysis_equivalent;
          Alcotest.test_case "tightened" `Quick test_analysis_tightened;
          Alcotest.test_case "relaxed and mixed" `Quick
            test_analysis_relaxed_and_mixed;
        ] );
      ( "proofs",
        [
          Alcotest.test_case "grant" `Quick test_proof_grant;
          Alcotest.test_case "deny without role" `Quick
            test_proof_denied_without_role;
          Alcotest.test_case "revoked credential" `Quick
            test_proof_revoked_credential;
          Alcotest.test_case "strictness on invalid credential" `Quick
            test_proof_expired_credential_fails_whole_proof;
          Alcotest.test_case "untrusted issuer" `Quick test_proof_untrusted_issuer;
          Alcotest.test_case "capability" `Quick test_proof_capability_from_server;
          Alcotest.test_case "context facts" `Quick test_proof_context_facts;
        ] );
    ]
