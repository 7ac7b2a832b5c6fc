(** Cached compilation: the bridge between {!Pipeline.compile} and the
    content-addressed artifact store in [Fsc_cache.Cache].

    Entries are keyed by a digest of (source text, target kind, merge
    flag, format version) and hold the {e printed} IR that
    {!Pipeline.link} consumes plus kernel metadata — including the
    per-kernel affine footprints (canonical string form). The Listing-4
    GPU module is not stored: {!Pipeline.gpu_ir} rebuilds it from the
    stencil module on demand.

    Entry layout (format 4): one JSON header line — [format], [target],
    [kernels], [managed], [footprints], [stats] and [sections], the byte
    length of each IR section — then the printed [host] and [stencil]
    modules back to back as raw text, with no JSON escaping:

    {v
{"format":4,...,"sections":{"host":H,"stencil":S}}
<H bytes: host module><S bytes: stencil module>
    v}

    Loading checks that the section lengths account for every byte
    after the header, re-parses each module through [Fsc_ir.Parser],
    re-verifies the host and recomputes every footprint from the parsed
    stencil IR, demanding it match what was stored — so every warm hit
    doubles as a printer/parser round-trip check {e and} a
    footprint-analysis consistency check; entries that fail are evicted
    by the cache, never fatal.

    The OpenMP thread count is deliberately absent from the key: the
    pool is created at {!Pipeline.link} time, so one cached artifact
    serves every pool size (the requested options are re-attached on
    load). *)

(** A cache wired to [format_version] (defaults: 64 in-memory entries,
    disk store under [Cache.default_dir ()]); [max_disk_bytes] bounds
    the disk store with LRU whole-set eviction (see {!Fsc_cache.Cache.create}). *)
val create_cache :
  ?mem_entries:int ->
  ?disk:bool ->
  ?dir:string ->
  ?max_disk_bytes:int ->
  unit ->
  Fsc_cache.Cache.t

(** The entry key for compiling [source] under the given options. *)
val key : Fsc_cache.Cache.t -> Pipeline.options -> string -> string

(** [compile ?cache options src] — with a cache, look up first and
    populate on miss; without one, plain {!Pipeline.compile}. A miss
    stores the entry (encode + put) under a ["cache store"] span of
    category ["cache"] that records its minor words. The second
    component reports what happened, for [--stats] and the job
    protocol. *)
val compile :
  ?cache:Fsc_cache.Cache.t ->
  Pipeline.options ->
  string ->
  Pipeline.compiled_artifact * [ `Hit | `Miss | `Off ]
