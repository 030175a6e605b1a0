(* Pools of resettable simulation sessions and memoized plans.

   A pool maps a configuration key (a string fingerprint of everything
   that shapes a session: level, estimator params, platform options) to
   a free-list of previously built sessions.  [with_session] checks one
   out, resets it, runs the workload, and returns it to the free list on
   success.  The store belongs to the pool: one table behind one mutex,
   shared by every domain that holds the pool and collected with it.
   The lock covers only table reads and writes — builds, resets and
   workloads run outside it. *)

type entry = { kind_id : int; value : exn }

(* Memo counters of one tag (trace and fabric plans, study and
   exploration cells, see Report.pool_stats); the totals are their sums. *)
type tag_counts = { mutable tag_hits : int; mutable tag_builds : int }

type t = {
  lock : Mutex.t;
  (* key -> free sessions, or memo key -> memoized values *)
  store : (string, entry list) Hashtbl.t;
  mutable hits : int;
  mutable builds : int;
  memo_tags : (string, tag_counts) Hashtbl.t;
}

(* Sessions are arbitrary, session-kind-specific records.  They are
   stored behind the classic universal type built from a local
   exception: each [kind] gets a fresh exception constructor, so a
   projection can never confuse two kinds even if their keys collide. *)
type 'a kind = {
  kind_id : int;
  inj : 'a -> exn;
  prj : exn -> 'a option;
}

let next_kind_id = Atomic.make 0

let kind (type a) () =
  let module M = struct
    exception E of a
  end in
  {
    kind_id = Atomic.fetch_and_add next_kind_id 1;
    inj = (fun x -> M.E x);
    prj = (function M.E x -> Some x | _ -> None);
  }

(* Free-list cap per key. *)
let capacity = 4

let create () =
  {
    lock = Mutex.create ();
    store = Hashtbl.create 16;
    hits = 0;
    builds = 0;
    memo_tags = Hashtbl.create 4;
  }

let locked t f = Mutex.protect t.lock f

(* The table accessors below run with the lock held. *)
let entries t key = Option.value (Hashtbl.find_opt t.store key) ~default:[]

let project kind (e : entry) =
  if e.kind_id = kind.kind_id then kind.prj e.value else None

let add t kind ~key v =
  Hashtbl.replace t.store key
    ({ kind_id = kind.kind_id; value = kind.inj v } :: entries t key)

let take t kind ~key =
  let rec pick acc = function
    | [] -> None
    | e :: rest -> (
      match project kind e with
      | Some v ->
        Hashtbl.replace t.store key (List.rev_append acc rest);
        Some v
      | None -> pick (e :: acc) rest)
  in
  pick [] (entries t key)

let acquire t kind ~key ~build ~reset =
  let pooled =
    locked t (fun () ->
        let s = take t kind ~key in
        if Option.is_some s then t.hits <- t.hits + 1
        else t.builds <- t.builds + 1;
        s)
  in
  match pooled with
  | Some s ->
    reset s;
    s
  | None -> build ()

let release t kind ~key v =
  locked t (fun () ->
      if List.length (entries t key) < capacity then add t kind ~key v)

let with_session t kind ~key ~build ~reset f =
  let session = acquire t kind ~key ~build ~reset in
  let result = f session in
  (* Release only on success: a raising workload may leave the session
     in an arbitrary half-run state that [reset] was never validated
     against, so the entry is dropped and rebuilt on next demand. *)
  release t kind ~key session;
  result

let hits t = locked t (fun () -> t.hits)
let builds t = locked t (fun () -> t.builds)

(* Memoized values (compiled trace plans, mostly): unlike sessions they
   are immutable, so a hit reads the entry without checking it out and
   the entry lives for the pool's lifetime — no capacity bound.  The
   namespace byte keeps memo keys from ever colliding with free-list
   keys.  A miss builds outside the lock; when two domains miss on one
   key, both count a build and the first insert wins. *)
let memo t kind ~tag ~key build =
  let key = "memo\x00" ^ key in
  let find () = List.find_map (project kind) (entries t key) in
  let cached =
    locked t (fun () ->
        let c =
          match Hashtbl.find_opt t.memo_tags tag with
          | Some c -> c
          | None ->
            let c = { tag_hits = 0; tag_builds = 0 } in
            Hashtbl.add t.memo_tags tag c;
            c
        in
        let v = find () in
        if Option.is_some v then c.tag_hits <- c.tag_hits + 1
        else c.tag_builds <- c.tag_builds + 1;
        v)
  in
  match cached with
  | Some v -> v
  | None ->
    let v = build () in
    locked t (fun () ->
        match find () with
        | Some first -> first
        | None ->
          add t kind ~key v;
          v)

let memo_tag_stats t =
  locked t (fun () ->
      Hashtbl.fold
        (fun tag c acc -> (tag, c.tag_hits, c.tag_builds) :: acc)
        t.memo_tags [])
  |> List.sort compare

let memo_total t sel =
  locked t (fun () -> Hashtbl.fold (fun _ c acc -> acc + sel c) t.memo_tags 0)

let memo_hits t = memo_total t (fun c -> c.tag_hits)
let memo_builds t = memo_total t (fun c -> c.tag_builds)

(* Pool keys fingerprint configuration values (characterization tables,
   electrical parameter records, interface configurations) — pure data,
   for which Marshal is a faithful structural identity. *)
let fingerprint v = Digest.to_hex (Digest.string (Marshal.to_string v []))
