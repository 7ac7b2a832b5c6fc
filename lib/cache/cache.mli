(** Content-addressed artifact cache.

    Keys are digests of whatever the client deems identity-defining
    (source text, target, flags, format version — see {!digest}); values
    are opaque serialized payloads. Two layers:

    - an in-memory LRU, capacity-bounded in entries and safe to use from
      any domain (one mutex guards all cache state);
    - an optional on-disk store, one file per entry, written atomically
      (temp file + rename) so a crash mid-write can only ever leave a
      garbage temp file or a truncated entry — never a half-visible one.

    Loads are {e revalidated}: every lookup (memory or disk) runs the
    caller's [validate] function over the raw payload, and entries that
    fail — corrupt, truncated, or written by a different format version —
    are evicted from both layers and reported as a miss, never an error.
    The cache is strictly best-effort: disk write failures are counted
    and swallowed. *)

type t

type stats = {
  mem_hits : int;
  disk_hits : int;
  misses : int;  (** lookups that returned nothing (includes invalid) *)
  evictions : int;  (** LRU evictions from the memory layer *)
  invalid : int;  (** entries dropped by validation / header checks *)
  stores : int;  (** successful {!put}s *)
  store_failures : int;  (** disk writes that failed and were swallowed *)
  disk_bytes : int;  (** bytes currently accounted on disk *)
  disk_evictions : int;  (** whole artifact sets evicted for the budget *)
}

(** [create ~version ()] makes a cache whose entries are only readable
    by caches of the same [version] (mismatches are evicted on load).
    [mem_entries] bounds the LRU layer (default 64); [dir] places the
    disk store (default {!default_dir}); [disk:false] keeps the cache
    memory-only. [max_disk_bytes] bounds the disk store: writes that
    push usage past the budget evict least-recently-used {e whole}
    artifact sets (the [.art] entry plus every sidecar of a key — never
    a partial set); [<= 0] means unbounded. The directory is created on
    first write. *)
val create :
  ?mem_entries:int ->
  ?disk:bool ->
  ?dir:string ->
  ?max_disk_bytes:int ->
  version:int ->
  unit ->
  t

val version : t -> int

(** Directory of the disk store, if any. *)
val dir : t -> string option

(** Hex digest of the given identity parts plus the cache version; the
    canonical way to build a key. *)
val digest : t -> string list -> string

(** Insert (or refresh) an entry in both layers. *)
val put : t -> key:string -> string -> unit

(** [find t ~key ~validate] checks memory then disk. The payload found —
    on {e every} hit, memory included — is passed through [validate];
    [Error _] evicts the entry from both layers and yields [None]. *)
val find :
  t -> key:string -> validate:(string -> ('a, string) result) -> 'a option

(** {2 Sidecar artifacts}

    Raw files stored next to the framed [.art] entries as
    [<key>.<ext>] — for artifacts that must stay byte-exact on disk
    (generated [.ml] source, Dynlink'able [.cmxs] plugins). Extensions
    are lowercase alphanumeric/underscore; ["art"] is reserved.
    Sidecars bypass the entry format's header validation; instead,
    clients publish a ["stamp"] sidecar describing the producing
    toolchain and call {!revalidate_sidecars} at startup, which drops
    every sidecar set whose stamp no longer matches (counted on the
    ["cache.sidecar_drop"] Obs counter). All operations are no-ops
    returning [None]/[0] on a diskless cache. *)

(** Path the sidecar would occupy ([None] if diskless); the file need
    not exist. *)
val sidecar_path : t -> key:string -> ext:string -> string option

(** Atomically write [payload] as [<key>.<ext>]; returns the final
    path, or [None] if diskless or the write failed (counted, like
    entry stores, in {!stats}). *)
val put_sidecar : t -> key:string -> ext:string -> string -> string option

(** Atomically move an existing [file] (same filesystem — build it in
    or under the cache directory) into place as [<key>.<ext>]. *)
val adopt_sidecar :
  t -> key:string -> ext:string -> file:string -> string option

(** Path of the sidecar if it exists on disk. *)
val find_sidecar : t -> key:string -> ext:string -> string option

(** Contents of the sidecar, if present and readable. *)
val read_sidecar : t -> key:string -> ext:string -> string option

(** Extensions present on disk for [key], in directory order. *)
val sidecar_exts : t -> key:string -> string list

(** Delete every sidecar of [key] (never the [.art] entry). *)
val remove_sidecars : t -> key:string -> unit

(** Drop every sidecar set whose ["stamp"] sidecar differs from
    [stamp] or cannot be read; returns the number of keys dropped. *)
val revalidate_sidecars : t -> stamp:string -> int

(** Bytes currently accounted in the disk store (0 if diskless). *)
val disk_bytes : t -> int

(** Startup sweep of the disk store: delete orphaned [.tmp.*] files
    left by crashed writers, rebuild the byte index from the directory,
    and evict LRU sets until the byte budget holds. Returns the number
    of temp files dropped plus sets evicted. Cheap no-op when diskless
    or the directory does not exist. *)
val sweep : t -> int

(** Memory-layer keys, most recently used first (test hook). *)
val mem_keys : t -> string list

(** Path an entry would occupy on disk (test hook; [None] if diskless). *)
val entry_path : t -> key:string -> string option

val stats : t -> stats
