type id = string

type kind =
  | Attribute
  | Access of { action : string; item : string }

type t = {
  id : id;
  subject : string;
  issuer : string;
  kind : kind;
  facts : Rule.fact list;
  issued_at : float;
  expires_at : float;
  signature : string;
}

(* The signed text is [issuer ## id|subject|issuer|kind|alpha|omega|facts...],
   built in one buffer: signatures are checked on every proof. *)
let signed_text ~id ~subject ~issuer ~kind ~facts ~issued_at ~expires_at =
  let buf = Buffer.create 128 in
  let field s =
    Buffer.add_string buf s;
    Buffer.add_char buf '|'
  in
  Buffer.add_string buf issuer;
  Buffer.add_string buf "##";
  field id;
  field subject;
  field issuer;
  (match kind with
  | Attribute -> field "attr"
  | Access { action; item } ->
    Buffer.add_string buf "access:";
    Buffer.add_string buf action;
    Buffer.add_char buf ':';
    field item);
  field (string_of_float issued_at);
  Buffer.add_string buf (string_of_float expires_at);
  List.iter
    (fun fact ->
      Buffer.add_char buf '|';
      Rule.add_atom buf fact)
    facts;
  Buffer.contents buf

(* Simulated signature: issuer-keyed digest of the payload. *)
let sign text = Digest.to_hex (Digest.string text)

let make ~id ~subject ~issuer ~kind ~facts ~issued_at ~expires_at =
  if expires_at <= issued_at then
    invalid_arg "Credential.make: expires_at must follow issued_at";
  List.iter
    (fun f ->
      if not (Rule.is_ground f) then
        invalid_arg "Credential.make: facts must be ground")
    facts;
  let text = signed_text ~id ~subject ~issuer ~kind ~facts ~issued_at ~expires_at in
  { id; subject; issuer; kind; facts; issued_at; expires_at; signature = sign text }

let forge t ~facts = { t with facts }

let of_wire ~id ~subject ~issuer ~kind ~facts ~issued_at ~expires_at ~signature =
  if expires_at <= issued_at then
    invalid_arg "Credential.of_wire: expires_at must follow issued_at";
  { id; subject; issuer; kind; facts; issued_at; expires_at; signature }

let signature_valid t =
  let text =
    signed_text ~id:t.id ~subject:t.subject ~issuer:t.issuer ~kind:t.kind
      ~facts:t.facts ~issued_at:t.issued_at ~expires_at:t.expires_at
  in
  String.equal t.signature (sign text)

type syntactic_failure = Not_yet_valid | Expired | Bad_signature

let syntactically_valid t ~at =
  if not (signature_valid t) then Error Bad_signature
  else if at < t.issued_at then Error Not_yet_valid
  else if at >= t.expires_at then Error Expired
  else Ok ()

let pp ppf t =
  Format.fprintf ppf "credential %s: subject=%s issuer=%s [%g, %g)" t.id
    t.subject t.issuer t.issued_at t.expires_at

let pp_syntactic_failure ppf = function
  | Not_yet_valid -> Format.fprintf ppf "not yet valid"
  | Expired -> Format.fprintf ppf "expired"
  | Bad_signature -> Format.fprintf ppf "bad signature"
