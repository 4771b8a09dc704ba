module Splitmix = Cloudtx_sim.Splitmix
module Transaction = Cloudtx_txn.Transaction
module Query = Cloudtx_txn.Query
module Value = Cloudtx_store.Value

type params = {
  queries_per_txn : int;
  write_ratio : float;
  zipf_s : float;
  spread : [ `Round_robin | `Random ];
}

let default =
  { queries_per_txn = 4; write_ratio = 0.5; zipf_s = 0.; spread = `Round_robin }

(* Zipf tables by (keys per server, exponent).  [Zipf.create] is pure, so
   a table made once serves every scenario and server of that shape.  The
   memo holds only CDF arrays, never a scenario; it is emptied when it
   reaches [max_tables], which a run that sweeps many shapes may hit. *)
let zipf_tables : (int * float, Zipf.t) Hashtbl.t = Hashtbl.create 8
let max_tables = 64

let zipf_table ~n ~s =
  match Hashtbl.find_opt zipf_tables (n, s) with
  | Some z -> z
  | None ->
    let z = Zipf.create ~n ~s in
    if Hashtbl.length zipf_tables >= max_tables then Hashtbl.reset zipf_tables;
    Hashtbl.add zipf_tables (n, s) z;
    z

let generate (scenario : Scenario.t) rng params ~id =
  if params.queries_per_txn <= 0 then
    invalid_arg "Generator.generate: queries_per_txn <= 0";
  let servers = scenario.Scenario.server_array in
  let subject = Splitmix.choice rng scenario.Scenario.subject_array in
  let start = Splitmix.int rng (Array.length servers) in
  let queries =
    List.init params.queries_per_txn (fun i ->
        let si =
          match params.spread with
          | `Round_robin -> (start + i) mod Array.length servers
          | `Random -> Splitmix.int rng (Array.length servers)
        in
        let keys = scenario.Scenario.key_arrays.(si) in
        let zipf = zipf_table ~n:(Array.length keys) ~s:params.zipf_s in
        let key () = keys.(Zipf.sample zipf rng) in
        let is_write = Splitmix.bool rng ~p:params.write_ratio in
        let qid = Printf.sprintf "%s-q%d" id (i + 1) in
        if is_write then
          Query.make ~id:qid ~server:servers.(si)
            ~writes:[ (key (), Value.Set (Value.Int (Splitmix.int rng 100))) ]
            ()
        else Query.make ~id:qid ~server:servers.(si) ~reads:[ key () ] ())
  in
  Transaction.make ~id ~subject
    ~credentials:(scenario.Scenario.credentials_of subject)
    queries

let arrival_times rng ~rate ~horizon =
  if rate <= 0. then invalid_arg "Generator.arrival_times: rate <= 0";
  let rec go t acc =
    let t = t +. Splitmix.exponential rng ~mean:(1. /. rate) in
    if t >= horizon then List.rev acc else go t (t :: acc)
  in
  go 0. []
