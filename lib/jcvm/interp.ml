exception Runtime_error of string

type result = { value : int option; steps : int; max_depth : int }

let to_short v =
  let v = v land 0xFFFF in
  if v > 32767 then v - 65536 else v

let max_call_depth = 64

(* One suspended caller. *)
type frame = { f_method : int; f_pc : int; f_locals : int array }

let run_methods ?(fuel = 1_000_000) ~stack ~memory ~ctx methods =
  if Array.length methods = 0 then raise (Runtime_error "no methods");
  Array.iteri
    (fun i m ->
      match Bytecode.validate m with
      | Ok () -> ()
      | Error msg -> raise (Runtime_error (Printf.sprintf "method %d: %s" i msg)))
    methods;
  let push = stack.Stack_intf.push and pop = stack.Stack_intf.pop in
  let fresh_locals m = Array.make (max 1 (Bytecode.max_locals methods.(m))) 0 in
  (* Current frame. *)
  let cur_method = ref 0 in
  let program = ref methods.(0) in
  let locals = ref (fresh_locals 0) in
  let pc = ref 0 in
  let callers : frame list ref = ref [] in
  let max_depth = ref 0 in
  let note_depth () =
    let d = stack.Stack_intf.depth () in
    if d > !max_depth then max_depth := d
  in
  let steps = ref 0 in
  let binop f =
    let b = pop () in
    let a = pop () in
    push (to_short (f a b))
  in
  let result = ref None in
  let finished = ref false in
  let return_from_method value =
    match !callers with
    | [] ->
      finished := true;
      result := value
    | frame :: rest ->
      callers := rest;
      cur_method := frame.f_method;
      program := methods.(frame.f_method);
      locals := frame.f_locals;
      pc := frame.f_pc;
      (* A value (if any) is already on the shared operand stack, where
         the caller expects it. *)
      (match value with Some v -> push v | None -> ())
  in
  while not !finished do
    if !steps >= fuel then raise (Runtime_error "fuel exhausted");
    incr steps;
    let here = !pc in
    pc := here + 1;
    match !program.(here) with
    | Bytecode.Nop -> ()
    | Bytecode.Pop -> ignore (pop ())
    | Bytecode.Dup ->
      let v = pop () in
      push v;
      push v;
      note_depth ()
    | Bytecode.Swap ->
      let b = pop () in
      let a = pop () in
      push b;
      push a
    | Bytecode.Sspush v ->
      push (to_short v);
      note_depth ()
    | Bytecode.Bspush v ->
      push (to_short v);
      note_depth ()
    | Bytecode.Sadd -> binop ( + )
    | Bytecode.Ssub -> binop ( - )
    | Bytecode.Smul -> binop ( * )
    | Bytecode.Sdiv ->
      binop (fun a b ->
          if b = 0 then raise (Runtime_error "division by zero") else a / b)
    | Bytecode.Sneg -> push (to_short (-pop ()))
    | Bytecode.Sand -> binop ( land )
    | Bytecode.Sor -> binop ( lor )
    | Bytecode.Sxor -> binop ( lxor )
    | Bytecode.Sshl -> binop (fun a b -> a lsl (b land 15))
    | Bytecode.Sshr -> binop (fun a b -> a asr (b land 15))
    | Bytecode.Sload i ->
      push !locals.(i);
      note_depth ()
    | Bytecode.Sstore i -> !locals.(i) <- pop ()
    | Bytecode.Sinc (i, v) -> !locals.(i) <- to_short (!locals.(i) + v)
    | Bytecode.Goto l -> pc := l
    | Bytecode.Ifeq l -> if pop () = 0 then pc := l
    | Bytecode.Ifne l -> if pop () <> 0 then pc := l
    | Bytecode.Iflt l -> if pop () < 0 then pc := l
    | Bytecode.Ifge l -> if pop () >= 0 then pc := l
    | Bytecode.If_scmpeq l ->
      let b = pop () in
      let a = pop () in
      if a = b then pc := l
    | Bytecode.If_scmpne l ->
      let b = pop () in
      let a = pop () in
      if a <> b then pc := l
    | Bytecode.If_scmplt l ->
      let b = pop () in
      let a = pop () in
      if a < b then pc := l
    | Bytecode.If_scmpge l ->
      let b = pop () in
      let a = pop () in
      if a >= b then pc := l
    | Bytecode.Getstatic i ->
      push (Memmgr.get_static memory i);
      note_depth ()
    | Bytecode.Putstatic i -> Memmgr.set_static memory i (pop ())
    | Bytecode.Newarray ->
      let len = pop () in
      if len < 0 then raise (Runtime_error "negative array length");
      push (Memmgr.alloc_array memory ~ctx ~len);
      note_depth ()
    | Bytecode.Saload ->
      let index = pop () in
      let obj = pop () in
      push (Memmgr.load memory ~ctx ~obj ~index)
    | Bytecode.Sastore ->
      let v = pop () in
      let index = pop () in
      let obj = pop () in
      Memmgr.store memory ~ctx ~obj ~index v
    | Bytecode.Arraylength ->
      let obj = pop () in
      push (Memmgr.length memory ~ctx ~obj)
    | Bytecode.Invokestatic m ->
      if m < 0 || m >= Array.length methods then
        raise (Runtime_error (Printf.sprintf "invokestatic: no method %d" m));
      if List.length !callers >= max_call_depth then
        raise (Runtime_error "call stack overflow");
      callers :=
        { f_method = !cur_method; f_pc = !pc; f_locals = !locals } :: !callers;
      cur_method := m;
      program := methods.(m);
      locals := fresh_locals m;
      pc := 0
    | Bytecode.Sreturn -> return_from_method (Some (pop ()))
    | Bytecode.Return -> return_from_method None
  done;
  { value = !result; steps = !steps; max_depth = !max_depth }

let run_soft ?fuel ?statics ?(methods = [||]) program =
  let firewall = Firewall.create () in
  let memory = Memmgr.create firewall in
  (match statics with
  | Some values -> Array.iteri (fun i v -> Memmgr.set_static memory i v) values
  | None -> ());
  let ctx = Firewall.new_context firewall in
  let soft = Soft_stack.create () in
  let result =
    run_methods ?fuel ~stack:(Soft_stack.ops soft) ~memory ~ctx
      (Array.append [| program |] methods)
  in
  { result with max_depth = max result.max_depth (Soft_stack.max_depth_seen soft) }
