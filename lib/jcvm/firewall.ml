type ctx = int

exception Security_violation of { from_ctx : int; obj : int }

type entry = { owner : ctx; mutable shared : bool }

type t = {
  objects : (int, entry) Hashtbl.t;
  mutable next_ctx : int;
  mutable denied : int;
}

let jcre = 0

let create () = { objects = Hashtbl.create 32; next_ctx = 1; denied = 0 }

let new_context t =
  let c = t.next_ctx in
  t.next_ctx <- c + 1;
  c

let register_object t ~owner ~obj =
  if Hashtbl.mem t.objects obj then
    invalid_arg (Printf.sprintf "Jcvm.Firewall: object %d already registered" obj);
  Hashtbl.replace t.objects obj { owner; shared = false }

let entry t obj =
  match Hashtbl.find_opt t.objects obj with
  | Some e -> e
  | None ->
    invalid_arg (Printf.sprintf "Jcvm.Firewall: unregistered object %d" obj)

let share t ~obj = (entry t obj).shared <- true

let accessible t ~from_ctx ~obj =
  let e = entry t obj in
  from_ctx = jcre || e.owner = from_ctx || e.shared

let check t ~from_ctx ~obj =
  if not (accessible t ~from_ctx ~obj) then begin
    t.denied <- t.denied + 1;
    raise (Security_violation { from_ctx; obj })
  end

let owner t ~obj = Option.map (fun e -> e.owner) (Hashtbl.find_opt t.objects obj)
let denied_accesses t = t.denied
