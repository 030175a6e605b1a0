type policy = Fixed_priority | Round_robin | Weighted of int array

let policy_to_string = function
  | Fixed_priority -> "fixed"
  | Round_robin -> "rr"
  | Weighted ws ->
    "wrr:"
    ^ String.concat "," (Array.to_list (Array.map string_of_int ws))

let policy_of_string s =
  match s with
  | "fixed" -> Some Fixed_priority
  | "rr" -> Some Round_robin
  | _ ->
    if String.length s > 4 && String.sub s 0 4 = "wrr:" then
      try
        let ws =
          String.sub s 4 (String.length s - 4)
          |> String.split_on_char ','
          |> List.map (fun w -> int_of_string (String.trim w))
          |> Array.of_list
        in
        Some (Weighted ws)
      with _ -> None
    else None

type t = {
  masters : int;
  policy : policy;
  waiting : bool array;
  grants : int array;
  mutable last_granted : int;  (* -1 before the first grant *)
  mutable credits : int;  (* remaining consecutive grants for the holder *)
  mutable granted_this_cycle : bool;
  mutable total_grants : int;
}

let create ~masters ~policy =
  if masters < 1 then invalid_arg "Arbiter.create: masters < 1";
  (match policy with
  | Weighted ws ->
    if Array.length ws <> masters then
      invalid_arg "Arbiter.create: weight vector length <> masters";
    Array.iter (fun w -> if w < 1 then invalid_arg "Arbiter.create: weight < 1") ws
  | Fixed_priority | Round_robin -> ());
  {
    masters;
    policy;
    waiting = Array.make masters false;
    grants = Array.make masters 0;
    last_granted = -1;
    credits = 0;
    granted_this_cycle = false;
    total_grants = 0;
  }

let policy t = t.policy

(* Cyclic distance of [m] behind the round-robin pointer: the master just
   after the last-granted index ranks 0. *)
let rr_rank t m = (m - t.last_granted - 1 + t.masters) mod t.masters

let rank t m =
  match t.policy with
  | Fixed_priority -> m
  | Round_robin -> rr_rank t m
  | Weighted _ ->
    if t.credits > 0 then
      (* The credit holder keeps the slot; everyone else queues behind it
         in round-robin order. *)
      if m = t.last_granted then 0 else rr_rank t m + 1
    else rr_rank t m

(* Is some other waiting master strictly stronger than [m]? *)
let outranked t m =
  let rm = rank t m in
  let blocked = ref false in
  for w = 0 to t.masters - 1 do
    if w <> m && t.waiting.(w) && rank t w < rm then blocked := true
  done;
  !blocked

let commit_grant t m =
  (match t.policy with
  | Fixed_priority -> ()
  | Round_robin -> t.last_granted <- m
  | Weighted ws ->
    if m = t.last_granted && t.credits > 0 then t.credits <- t.credits - 1
    else begin
      t.last_granted <- m;
      t.credits <- ws.(m) - 1
    end);
  t.waiting.(m) <- false;
  t.grants.(m) <- t.grants.(m) + 1;
  t.total_grants <- t.total_grants + 1;
  t.granted_this_cycle <- true

let attempt t m =
  if m < 0 || m >= t.masters then invalid_arg "Arbiter.attempt: bad master";
  if t.granted_this_cycle || outranked t m then begin
    t.waiting.(m) <- true;
    false
  end
  else true

let commit t m =
  if m < 0 || m >= t.masters then invalid_arg "Arbiter.commit: bad master";
  commit_grant t m

let note_refused t m =
  if m < 0 || m >= t.masters then invalid_arg "Arbiter.note_refused: bad master";
  t.waiting.(m) <- true

let new_cycle t = t.granted_this_cycle <- false
let waiting t m = t.waiting.(m)
let grants t m = t.grants.(m)
let total_grants t = t.total_grants

let reset t =
  Array.fill t.waiting 0 t.masters false;
  Array.fill t.grants 0 t.masters 0;
  t.last_granted <- -1;
  t.credits <- 0;
  t.granted_this_cycle <- false;
  t.total_grants <- 0
