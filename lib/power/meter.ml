(* The accumulators live in an unboxed float array rather than mutable
   float fields: in a record that also holds non-float fields, every store
   to a mutable float field allocates a fresh box, and [add] runs hundreds
   of times per simulated cycle on the estimation hot path. *)

let current_ = 0
let total_ = 1
let last_cycle_ = 2
let marker_ = 3

type t = {
  acc : float array;  (* current, total, last_cycle, marker *)
  mutable cycles : int;
  profile : Profile.t option;
}

let create ~record_profile () =
  {
    acc = Array.make 4 0.0;
    cycles = 0;
    profile = (if record_profile then Some (Profile.create ()) else None);
  }

let[@inline] add t e =
  Array.unsafe_set t.acc current_ (Array.unsafe_get t.acc current_ +. e)

(* Without flambda a cross-module [add] boxes its float argument on every
   call; estimator hot loops instead accumulate straight into the array. *)
let in_cycle_acc t = t.acc

let end_cycle t =
  let current = t.acc.(current_) in
  t.acc.(total_) <- t.acc.(total_) +. current;
  t.acc.(last_cycle_) <- current;
  (match t.profile with
  | Some p -> Profile.push p current
  | None -> ());
  t.acc.(current_) <- 0.0;
  t.cycles <- t.cycles + 1

let total_pj t = t.acc.(total_)
let cycles t = t.cycles
let last_cycle_pj t = t.acc.(last_cycle_)

let since_last_call_pj t =
  let delta = t.acc.(total_) -. t.acc.(marker_) in
  t.acc.(marker_) <- t.acc.(total_);
  delta

let profile t = t.profile

let reset t =
  Array.fill t.acc 0 4 0.0;
  t.cycles <- 0;
  match t.profile with
  | Some p -> Profile.reset p
  | None -> ()
