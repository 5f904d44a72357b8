(** One-stop execution of a kernel under a technique: compile-time
    preparation, simulation, and the derived metrics the paper's figures
    report. *)

type run = {
  technique : Technique.t;
  kernel_name : string;
  cycles : int;
  instructions : int;
  theoretical_warps : int;
  theoretical_occupancy : float;  (** warps / max warps, per §II *)
  achieved_occupancy : float;     (** resident-warp integral over the run *)
  acquire_ratio : float;          (** successful acquires / acquire instrs *)
  srp_sections : int;
  stats : Gpu_sim.Stats.t;
  prepared : Technique.prepared;
}

(** [prepare ?options cfg technique kernel] is {!Technique.prepare}, timed
    in the [runner.prepare] profile slot. It ignores [options.simt], so
    one prepared kernel serves both execution models. *)
val prepare :
  ?options:Technique.options ->
  Gpu_uarch.Arch_config.t ->
  Technique.t ->
  Gpu_sim.Kernel.t ->
  Technique.prepared

(** [simulate cfg prepared] runs a prepared kernel, timed in the
    [runner.simulate] profile slot, and derives the run's metrics. [simt]
    (default [false]) selects per-thread execution; the other arguments
    are those of {!execute}. *)
val simulate :
  ?simt:bool ->
  ?record_stores:bool ->
  ?trace_warp0:bool ->
  ?max_cycles:int ->
  ?fast_forward:bool ->
  ?corrupt_mask:int ->
  ?telemetry:Telemetry.Sink.t ->
  Gpu_uarch.Arch_config.t ->
  Technique.prepared ->
  run

(** [execute ?fast_forward cfg technique kernel] is {!prepare} followed by
    {!simulate} with [simt] taken from [options].
    [fast_forward] (default [true]) selects event-driven cycle skipping in
    the simulator; it is semantics-preserving, so the resulting [run] (and
    its {!fingerprint}) is identical either way — [false] exists as the
    brute-force reference for the equivalence suite and benchmarks.
    [corrupt_mask] (default [0]) clears lanes from every warp's initial
    active mask — the fuzz oracle's fault-injection hook for its
    per-lane-trace self-test; meaningful only with [options.simt]. *)
val execute :
  ?options:Technique.options ->
  ?record_stores:bool ->
  ?trace_warp0:bool ->
  ?max_cycles:int ->
  ?fast_forward:bool ->
  ?corrupt_mask:int ->
  ?telemetry:Telemetry.Sink.t ->
  Gpu_uarch.Arch_config.t ->
  Technique.t ->
  Gpu_sim.Kernel.t ->
  run

(** Stable digest of the metrics the figures read. Identical for two runs
    of the same configuration regardless of which domain or process
    simulated them — the experiment engine compares these in its
    determinism checks. *)
val fingerprint : run -> string

(** [(baseline - run) / baseline × 100] — positive is faster (Figures 7,
    9a, 10, 12a). *)
val reduction_pct : baseline:run -> run -> float

(** [(run - baseline) / baseline × 100] — positive is slower (Figures 8,
    9b, 12b). *)
val increase_pct : baseline:run -> run -> float

val pp : Format.formatter -> run -> unit
