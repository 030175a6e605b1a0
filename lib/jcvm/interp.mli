(** The bytecode interpreter — the functional, untimed Java Card VM model
    of the paper's Figure 7(a).

    The interpreter is parameterized over the operand stack interface; it
    is otherwise pure bookkeeping over locals, the {!Memmgr} and the
    program counter, so plugging the bus-backed stack adapter in (Figure
    7(b)) refines only the communication, not the behaviour.  The test
    suite relies on that: both bindings must produce identical results. *)

exception Runtime_error of string
(** Division by zero, fuel exhaustion, malformed programs. *)

type result = {
  value : int option;  (** [Sreturn]'s operand, [None] after [Return] *)
  steps : int;  (** instructions executed *)
  max_depth : int;  (** high-water mark of the operand stack *)
}

val run_methods :
  ?fuel:int ->
  stack:Stack_intf.ops ->
  memory:Memmgr.t ->
  ctx:Firewall.ctx ->
  Bytecode.t array array ->
  result
(** Executes method 0 of the method table until it returns.
    [Invokestatic i] pushes a frame (per-method locals, shared operand
    stack — arguments and results travel on it) and enters method [i];
    call depth is bounded at 64.  [fuel] (default 1_000_000 steps) bounds
    runaway programs.

    @raise Runtime_error on dynamic errors (division by zero, fuel, call
    depth, unknown method, invalid bytecode).
    @raise Firewall.Security_violation and {!Memmgr.Bounds} are let
    through: they are the model's security-relevant outcomes. *)

val run_soft :
  ?fuel:int ->
  ?statics:int array ->
  ?methods:Bytecode.t array array ->
  Bytecode.t array ->
  result
(** Convenience harness: fresh firewall, memory manager, one applet
    context and a software stack; [statics] pre-loads static fields,
    [methods] appends callee methods (the entry program is method 0). *)
