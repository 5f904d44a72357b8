(** On-disk result store under [<root>/<version-tag>/].

    One file [<digest>.run] per cache key, holding the marshalled
    [(key, run)] pair; the file name is the hex digest of the key.
    Writes go to a [*.tmp] file first and are renamed into place, so a
    reader never sees a partial entry.

    All operations are serialized by an internal mutex, so the store may
    be touched from any domain. *)

type stats = {
  entries : int;        (** [.run] files in the current version dir *)
  bytes : int;          (** their total size *)
  version : string;     (** current version tag, e.g. ["v2-abc1234"] *)
}

(** Enable ([Some dir], conventionally ["_results"]) or disable ([None])
    the store. *)
val set_root : string option -> unit

val root : unit -> string option

(** [v<schema>-<git-describe>] — the version directory name. *)
val version_tag : unit -> string

(** [load key] reads the entry back; [None] when disabled, absent,
    unreadable (e.g. truncated) or stored under a different key. *)
val load : string -> Regmutex.Runner.run option

(** [store key run] writes atomically (tmp + rename). *)
val store : string -> Regmutex.Runner.run -> unit

(** Counts the [.run] files of the current version directory ([*.tmp]
    leftovers are not entries). *)
val stats : unit -> stats
