(** On-disk corpus of failing seeds and shrunk counterexamples.

    Layout under the corpus directory (default [_fuzz/]):
    - [corpus.txt] — one failing seed per line ([<seed>  # <kind>]),
      replayed before fresh seeds on the next run so regressions are
      caught first;
    - [seed<N>.kern] — the shrunk counterexample program in parser
      syntax, with a comment header carrying the launch geometry, the
      failure report and a copy-pasteable replay command. *)

val default_dir : string

(** Seeds recorded in [dir/corpus.txt], in file order; [] when absent. *)
val load_seeds : dir:string -> int list

(** Record a failing seed (idempotent; creates [dir] as needed). *)
val add_seed : dir:string -> seed:int -> kind:Oracle.kind -> unit

(** Write the (shrunk) case to [dir/seed<N>.kern] and return the path.
    The replay line carries [--simt] when any failure was found under it. *)
val write_counterexample :
  dir:string -> Gen.t -> Oracle.failure list -> string
