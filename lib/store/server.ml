module Replica = Cloudtx_policy.Replica

type workspace = {
  ts : float;
  mutable writes : (string * Value.update) list; (* oldest first; Adds compose *)
}

type t = {
  name : string;
  data : (string, Value.t) Hashtbl.t;
  versions : (string, (float * Value.t option) list) Hashtbl.t;
      (* committed version chain per key, newest first; time 0 = opening
         state. Feeds snapshot reads. *)
  replica : Replica.t;
  locks : Lock_manager.t;
  wal : Wal.t;
  constraints : Integrity.t array;
  violated : bool array;
      (* [violated.(i)]: the committed data violates [constraints.(i)].
         Kept in step with [data]: computed at create and recover, and
         recomputed at each commit for the constraints its writes may
         change.  A vote then checks only the constraints its own writes
         may change. *)
  workspaces : (string, workspace) Hashtbl.t;
}

let get t key = Hashtbl.find_opt t.data key

let refresh_violations t ~written =
  let committed = get t in
  for i = 0 to Array.length t.constraints - 1 do
    let c = t.constraints.(i) in
    if Integrity.may_read c written then
      t.violated.(i) <- not (Integrity.check c committed)
  done

let rec writes_key key = function
  | [] -> false
  | (k, _) :: rest -> String.equal k key || writes_key key rest

let create ~name ?(constraints = []) ~items () =
  let data = Hashtbl.create 64 in
  let versions = Hashtbl.create 64 in
  List.iter
    (fun (k, v) ->
      Hashtbl.replace data k v;
      Hashtbl.replace versions k [ (0., Some v) ])
    items;
  let constraints = Array.of_list constraints in
  let t =
    {
      name;
      data;
      versions;
      replica = Replica.create ();
      locks = Lock_manager.create ();
      wal = Wal.create ();
      constraints;
      violated = Array.make (Array.length constraints) false;
      workspaces = Hashtbl.create 16;
    }
  in
  refresh_violations t ~written:(fun _ -> true);
  t

let name t = t.name
let replica t = t.replica
let wal t = t.wal
let locks t = t.locks
let hosts t key = Hashtbl.mem t.versions key

let read_asof t key ~ts =
  match Hashtbl.find_opt t.versions key with
  | None -> None
  | Some chain -> (
    match List.find_opt (fun (at, _) -> at <= ts) chain with
    | Some (_, v) -> v
    | None -> None)

let execute_snapshot t ~reads ~ts =
  List.map
    (fun key ->
      if not (Hashtbl.mem t.versions key) then
        invalid_arg
          (Printf.sprintf "Server %s does not host data item %s" t.name key);
      (key, read_asof t key ~ts))
    reads

let vacuum t ~before =
  let reclaimed = ref 0 in
  Hashtbl.iter
    (fun key chain ->
      (* Keep versions newer than the horizon plus the first at-or-before
         one (it serves reads exactly at the horizon). *)
      let rec split kept = function
        | [] -> (List.rev kept, [])
        | (at, v) :: rest when at > before -> split ((at, v) :: kept) rest
        | (at, v) :: rest -> (List.rev (( at, v) :: kept), rest)
      in
      let keep, drop = split [] chain in
      if drop <> [] then begin
        reclaimed := !reclaimed + List.length drop;
        Hashtbl.replace t.versions key keep
      end)
    t.versions;
  !reclaimed

let keys t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.data [] |> List.sort String.compare

let begin_work t ~txn ~ts ~time =
  if not (Hashtbl.mem t.workspaces txn) then begin
    Hashtbl.add t.workspaces txn { ts; writes = [] };
    ignore (Wal.append t.wal ~time ~forced:false (Wal.Begin_txn { txn }))
  end

let workspace t txn =
  match Hashtbl.find_opt t.workspaces txn with
  | Some w -> w
  | None ->
    invalid_arg
      (Printf.sprintf "Server %s: no workspace for transaction %s" t.name txn)

type exec_result =
  | Executed of (string * Value.t option) list
  | Blocked
  | Die

let overlay t ~txn key =
  let committed = Hashtbl.find_opt t.data key in
  match Hashtbl.find_opt t.workspaces txn with
  | Some w ->
    List.fold_left
      (fun acc (k, update) ->
        if String.equal k key then Value.apply update acc else acc)
      committed w.writes
  | None -> committed

let execute t ~txn ~reads ~writes =
  let w = workspace t txn in
  let check_hosted key =
    if not (hosts t key) then
      invalid_arg
        (Printf.sprintf "Server %s does not host data item %s" t.name key)
  in
  List.iter check_hosted reads;
  List.iter (fun (k, _) -> check_hosted k) writes;
  (* Acquire all locks first; partial acquisitions persist across retries
     because [Lock_manager.acquire] is idempotent for held locks. *)
  let acquire key mode = Lock_manager.acquire t.locks ~txn ~ts:w.ts ~key mode in
  let outcomes =
    List.map (fun k -> acquire k Lock_manager.Shared) reads
    @ List.map (fun (k, _) -> acquire k Lock_manager.Exclusive) writes
  in
  if List.mem Lock_manager.Die outcomes then Die
  else if List.mem Lock_manager.Queued outcomes then Blocked
  else begin
    w.writes <- w.writes @ writes;
    Executed (List.map (fun k -> (k, overlay t ~txn k)) reads)
  end

(* Same names in the same order as [Integrity.check_all] over every
   constraint: one that reads no key the workspace writes sees the
   committed value at each key it reads, so its verdict is [violated]. *)
let integrity_violations t ~txn =
  let lookup = overlay t ~txn in
  let written =
    match Hashtbl.find_opt t.workspaces txn with
    | Some { writes = _ :: _ as writes; _ } -> fun key -> writes_key key writes
    | Some { writes = []; _ } | None -> fun _ -> false
  in
  let names = ref [] in
  for i = Array.length t.constraints - 1 downto 0 do
    let c = t.constraints.(i) in
    let violated =
      if Integrity.may_read c written then not (Integrity.check c lookup)
      else t.violated.(i)
    in
    if violated then names := Integrity.name c :: !names
  done;
  !names

(* Keys the workspace touches, in first-write order, with their resolved
   post-transaction values (unresolvable updates drop the key). *)
let resolved_writes t ~txn =
  match Hashtbl.find_opt t.workspaces txn with
  | None -> []
  | Some w ->
    let seen = Hashtbl.create 8 in
    List.filter_map
      (fun (k, _) ->
        if Hashtbl.mem seen k then None
        else begin
          Hashtbl.add seen k ();
          Some (k, overlay t ~txn k)
        end)
      w.writes

let prepare t ~txn ~time ~proof_truth ~policy_versions =
  ignore (workspace t txn);
  let vote = integrity_violations t ~txn = [] in
  let writes =
    List.filter_map
      (fun (k, v) -> Option.map (fun v -> (k, v)) v)
      (resolved_writes t ~txn)
  in
  ignore
    (Wal.append t.wal ~time ~forced:true
       (Wal.Prepared
          { txn; writes; integrity_vote = vote; proof_truth; policy_versions }));
  vote

let apply_writes t writes =
  List.iter (fun (k, v) -> Hashtbl.replace t.data k v) writes

let record_version t ~time k v =
  let chain = Option.value ~default:[] (Hashtbl.find_opt t.versions k) in
  Hashtbl.replace t.versions k ((time, v) :: chain)

let settle t ~txn ~time ~forced ~commit =
  ignore (Wal.append t.wal ~time ~forced (Wal.Decision { txn; commit }));
  (if commit && Hashtbl.mem t.workspaces txn then begin
     let writes = resolved_writes t ~txn in
     List.iter
       (fun (k, v) ->
         record_version t ~time k v;
         match v with
         | Some v -> Hashtbl.replace t.data k v
         | None -> Hashtbl.remove t.data k)
       writes;
     refresh_violations t ~written:(fun key -> writes_key key writes)
   end);
  Hashtbl.remove t.workspaces txn;
  Lock_manager.release_all t.locks ~txn

let commit ?(forced = true) t ~txn ~time = settle t ~txn ~time ~forced ~commit:true
let abort ?(forced = true) t ~txn ~time = settle t ~txn ~time ~forced ~commit:false

let finish t ~txn ~time =
  ignore (Wal.append t.wal ~time ~forced:false (Wal.End_txn { txn }))

let is_read_only t ~txn =
  match Hashtbl.find_opt t.workspaces txn with
  | Some w -> w.writes = []
  | None -> true

let forget t ~txn ~time =
  Hashtbl.remove t.workspaces txn;
  ignore (Wal.append t.wal ~time ~forced:false (Wal.End_txn { txn }));
  Lock_manager.release_all t.locks ~txn

let checkpoint t ~time =
  let active = Hashtbl.fold (fun txn _ acc -> txn :: acc) t.workspaces [] in
  ignore (Wal.checkpoint t.wal ~time ~active:(List.sort String.compare active));
  Wal.truncate_to_checkpoint t.wal

let crash t =
  Hashtbl.reset t.workspaces;
  (* Lose the unforced tail: keep records up to the last forced one. *)
  let last_forced =
    List.fold_left
      (fun acc (e : Wal.entry) -> if e.Wal.forced then e.Wal.lsn else acc)
      (-1) (Wal.entries t.wal)
  in
  Wal.truncate_after t.wal last_forced;
  (* The lock table is volatile. *)
  Lock_manager.clear t.locks

let recover t ~time =
  Lock_manager.clear t.locks;
  let in_doubt = ref [] in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (e : Wal.entry) ->
      let note txn = Hashtbl.replace seen txn () in
      match e.Wal.record with
      | Wal.Begin_txn { txn } | Wal.Decision { txn; _ } | Wal.End_txn { txn } ->
        note txn
      | Wal.Prepared { txn; _ } -> note txn
      | Wal.Checkpoint _ -> ())
    (Wal.entries t.wal);
  Hashtbl.iter
    (fun txn () ->
      match Wal.recover_txn t.wal ~txn with
      | `Prepared (writes, _) ->
        (* In doubt: hold exclusive locks until the coordinator answers. *)
        List.iter
          (fun (k, _) ->
            ignore
              (Lock_manager.acquire t.locks ~txn ~ts:0. ~key:k
                 Lock_manager.Exclusive))
          writes;
        let w =
          { ts = 0.; writes = List.map (fun (k, v) -> (k, Value.Set v)) writes }
        in
        Hashtbl.replace t.workspaces txn w;
        in_doubt := txn :: !in_doubt
      | `Committed writes ->
        (* Redo: committed data survives crashes in this model, but redo is
           idempotent so re-applying is safe and covers decisions logged
           right before the crash. *)
        apply_writes t writes;
        ignore (Wal.append t.wal ~time ~forced:false (Wal.End_txn { txn }))
      | `No_trace | `Active | `Aborted | `Finished -> ())
    seen;
  refresh_violations t ~written:(fun _ -> true);
  List.sort String.compare !in_doubt
