(** Reproduction report: one measuring pass over the simulator and an
    exact gate against a committed baseline
    ([test/golden/report_quick.json]).

    {!measure} simulates every cell of a {!cells} set once per execution
    mode and builds a {!snapshot} of

    - {e metrics}: deterministic simulation numbers, never timings —
      RegDem's mean occupancy gain and energy factor over baseline, and
      the total simulated cycles, instructions and divergent branches,
      and the total residual issue checks ({!Gpu_sim.Stats.t.issue_checks},
      summed over the fast-forward runs: the work counter that shows the
      schedulers examine the same candidates);
    - {e invariants}: identities across execution modes that must hold on
      every cell — fast-forward = brute force, telemetry sink off = on,
      warp-uniform = [--simt] on uniform kernels — plus two coverage
      checks (some workload is demoted, some divergent cell diverges).

    {!check} compares the metrics {e exactly} against a baseline: any
    changed value, a measured metric missing from the baseline, a
    baseline key nothing measures, or a broken invariant fails it.
    Wall-clock timing lives in [perfbench/], not here. *)

type metric = { key : string; value : float }

(** [failing] names the cells (["workload/technique"]) that break the
    invariant, or says why an existence check failed; [[]] means it
    holds. *)
type invariant = { inv_key : string; failing : string list }

type snapshot = { metrics : metric list; invariants : invariant list }

type cells = {
  uniform : Workloads.Spec.t list;
      (** every technique, fast-forward and brute force, sink off and on *)
  simt : Workloads.Spec.t list;
      (** every technique again under [--simt], both stepping modes; must
          be a subset of [uniform] *)
  divergent : Workloads.Spec.t list;
      (** every technique under [--simt], both stepping modes *)
}

(** [measure ?cells cfg] runs the pass (serially, one simulation per cell
    and mode) on [cfg]'s architectures and grids. [cells] defaults to
    [Registry.all @ Registry.latency_bound], [Registry.figure1] and
    [Registry.divergent]. *)
val measure : ?cells:cells -> Exp_config.t -> snapshot

(** Walk up from [start] (default the working directory) to the first
    directory containing [dune-project] — where the baseline lives. *)
val find_repo_root : ?start:string -> unit -> string option

(** Read a baseline written by {!write_baseline}. Every row must be an
    object of exactly a string ["key"] and a number ["value"], and keys
    must be unique; anything else is an [Error] naming the row. *)
val load_baseline : string -> (metric list, string) result

(** Write [snapshot]'s metrics as the new baseline. *)
val write_baseline : string -> snapshot -> unit

(** [check snapshot baseline] is the list of failures; [[]] passes. *)
val check : snapshot -> metric list -> string list

val pp_snapshot : Format.formatter -> snapshot -> unit

(** Prints [PASS], or [FAIL] and each failure. *)
val pp_failures : Format.formatter -> string list -> unit
