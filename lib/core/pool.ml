(* Per-domain pools of resettable simulation sessions.

   A pool maps a configuration key (a string fingerprint of everything
   that shapes a session: level, estimator params, platform options) to
   a free-list of previously built sessions.  [with_session] checks one
   out, resets it, runs the workload, and returns it to the free list on
   success.  The store lives in [Domain.DLS], so each worker domain of
   [Parallel.map] owns a private free-list and the hot path takes no
   lock — pooled reuse composes with domain parallelism for free, at the
   cost of one warmup build per (domain, key). *)

type entry = { kind_id : int; value : exn }

type t = {
  id : int;
  hits : int Atomic.t;
  builds : int Atomic.t;
  (* Memo counters per tag (trace, fabric and exploration-cell plans,
     see Report.pool_stats); the totals are their sums.  The table only
     ever grows by a handful of tags, so a mutex around the lookup is
     cheap; the counters themselves are atomics, bumped lock-free once
     found. *)
  memo_tags : (string, int Atomic.t * int Atomic.t) Hashtbl.t;
  memo_tags_lock : Mutex.t;
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

let next_pool_id = Atomic.make 0

(* Free-list cap per (domain, key). *)
let capacity = 4

let create () =
  {
    id = Atomic.fetch_and_add next_pool_id 1;
    hits = Atomic.make 0;
    builds = Atomic.make 0;
    memo_tags = Hashtbl.create 4;
    memo_tags_lock = Mutex.create ();
  }

(* Domain-local store: pool id -> key -> free entries.  One flat
   hashtable per domain; distinct pools and keys never interfere. *)
let store : (int * string, entry list ref) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let slot t ~key =
  let tbl = Domain.DLS.get store in
  let k = (t.id, key) in
  match Hashtbl.find_opt tbl k with
  | Some r -> r
  | None ->
    let r = ref [] in
    Hashtbl.add tbl k r;
    r

let take t kind ~key =
  let r = slot t ~key in
  let rec pick acc = function
    | [] -> None
    | (e : entry) :: rest -> (
      match if e.kind_id = kind.kind_id then kind.prj e.value else None with
      | Some v ->
        r := List.rev_append acc rest;
        Some v
      | None -> pick (e :: acc) rest)
  in
  pick [] !r

let put t kind ~key v =
  let r = slot t ~key in
  if List.length !r < capacity then
    r := { kind_id = kind.kind_id; value = kind.inj v } :: !r

let acquire t kind ~key ~build ~reset =
  match take t kind ~key with
  | Some s ->
    Atomic.incr t.hits;
    reset s;
    s
  | None ->
    Atomic.incr t.builds;
    build ()

let release t kind ~key v = put t kind ~key v

let with_session t kind ~key ~build ~reset f =
  let session = acquire t kind ~key ~build ~reset in
  let result = f session in
  (* Release only on success: a raising workload may leave the session
     in an arbitrary half-run state that [reset] was never validated
     against, so the entry is dropped and rebuilt on next demand. *)
  release t kind ~key session;
  result

let hits t = Atomic.get t.hits
let builds t = Atomic.get t.builds

(* Memoized values (compiled trace plans, mostly): unlike sessions they
   are immutable, so a hit reads the entry without checking it out and
   the entry lives for the pool's lifetime — no capacity bound.  The
   namespace byte keeps memo keys from ever colliding with free-list
   keys. *)
let tag_counters t tag =
  Mutex.lock t.memo_tags_lock;
  let c =
    match Hashtbl.find_opt t.memo_tags tag with
    | Some c -> c
    | None ->
      let c = (Atomic.make 0, Atomic.make 0) in
      Hashtbl.add t.memo_tags tag c;
      c
  in
  Mutex.unlock t.memo_tags_lock;
  c

let memo t kind ~tag ~key build =
  let r = slot t ~key:("memo\x00" ^ key) in
  let rec find = function
    | [] -> None
    | (e : entry) :: rest -> (
      match if e.kind_id = kind.kind_id then kind.prj e.value else None with
      | Some v -> Some v
      | None -> find rest)
  in
  let hits, builds = tag_counters t tag in
  match find !r with
  | Some v ->
    Atomic.incr hits;
    v
  | None ->
    Atomic.incr builds;
    let v = build () in
    r := { kind_id = kind.kind_id; value = kind.inj v } :: !r;
    v

let memo_tag_stats t =
  Mutex.lock t.memo_tags_lock;
  let rows =
    Hashtbl.fold
      (fun tag (h, b) acc -> (tag, Atomic.get h, Atomic.get b) :: acc)
      t.memo_tags []
  in
  Mutex.unlock t.memo_tags_lock;
  List.sort compare rows

let memo_total t sel =
  Mutex.lock t.memo_tags_lock;
  let n =
    Hashtbl.fold (fun _ c acc -> acc + Atomic.get (sel c)) t.memo_tags 0
  in
  Mutex.unlock t.memo_tags_lock;
  n

let memo_hits t = memo_total t fst
let memo_builds t = memo_total t snd

(* Pool keys fingerprint configuration values (characterization tables,
   electrical parameter records, interface configurations) — pure data,
   for which Marshal is a faithful structural identity. *)
let fingerprint v = Digest.to_hex (Digest.string (Marshal.to_string v []))
