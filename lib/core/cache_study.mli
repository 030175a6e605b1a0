(** Parametrized cache-and-bus exploration.

    The paper's reference [1] (Givargis/Vahid/Henkel) evaluates power of
    parametrized cache and bus architectures; this study reproduces that
    flavour of experiment on our platform: sweep the instruction cache
    size and measure, per workload, the cycles, the bus energy the cache
    saves, the cache's own energy, and the hit rate — the classic
    find-the-knee curve. *)

type row = {
  lines : int option;  (** [None] = no cache *)
  cycles : int;
  bus_pj : float;
  cache_pj : float;
  total_pj : float;  (** bus + cache + other peripherals *)
  hit_rate_pct : float;
  splice : Hier.Splice.t option;
      (** adaptive rows only: the spliced provenance of [bus_pj] *)
}

type t = { workload : string; rows : row list }

val run :
  ?level:Level.t ->
  ?policy:Hier.Policy.t ->
  ?sizes:int option list ->
  ?name:string ->
  Soc.Asm.program ->
  t
(** Defaults: layer-1 bus; sizes [none; 1; 2; 4; 16] lines.  The sweep
    runs on a session pool — fixed-level rows keep one session per cache
    size, adaptive rows reuse one live session's materials;
    pooled rows are bit-identical to fresh ones.

    [policy] switches each size to the adaptive route: the program runs
    once on the gate-level system behind the candidate cache
    ({!Runner.capture_with_icache}) and the captured post-cache bus
    traffic replays through {!Runner.run_adaptive} under the policy —
    rows then carry the splice provenance, and [cycles] count the
    spliced bus-replay timeline rather than a CPU run. *)

val render : t -> string
