(* Content-addressed artifact cache: a mutex-guarded in-memory LRU over
   an atomically written on-disk store. See the interface for the
   contract; the load path is deliberately paranoid because cache files
   are the one input the rest of the compiler does not control — every
   entry re-earns its place through the caller's validator on every hit,
   and anything suspect is deleted rather than reported. *)

module Obs = Fsc_obs.Obs

(* Disk entry layout:

     sfc-cache <version> <key> <payload-bytes>\n<payload>

   The explicit payload length makes truncation (a crash between the
   atomic rename of one entry and a later partial overwrite, or plain
   filesystem damage) detectable without parsing the payload. *)
let magic = "sfc-cache"

type entry = {
  e_payload : string;
  mutable e_stamp : int; (* LRU clock value at last touch *)
}

type stats = {
  mem_hits : int;
  disk_hits : int;
  misses : int;
  evictions : int;
  invalid : int;
  stores : int;
  store_failures : int;
  disk_bytes : int;
  disk_evictions : int;
}

type t = {
  mutex : Mutex.t;
  tbl : (string, entry) Hashtbl.t;
  mem_entries : int;
  cache_dir : string option;
  t_version : int;
  max_disk_bytes : int option;
  (* disk accounting (lazy: populated by the first disk operation) *)
  mutable d_scanned : bool;
  d_files : (string, int) Hashtbl.t; (* basename -> bytes *)
  d_used : (string, float) Hashtbl.t; (* key -> last-used time *)
  mutable d_bytes : int;
  mutable tick : int;
  mutable s_mem_hits : int;
  mutable s_disk_hits : int;
  mutable s_misses : int;
  mutable s_evictions : int;
  mutable s_invalid : int;
  mutable s_stores : int;
  mutable s_store_failures : int;
  mutable s_disk_evictions : int;
}

(* Obs counters (process-wide; no-ops unless recording is enabled) so a
   --stats run shows cache behaviour alongside spans and pool counters. *)
let c_hit = Obs.counter "cache.hit"
let c_miss = Obs.counter "cache.miss"
let c_invalid = Obs.counter "cache.invalid"
let c_evict = Obs.counter "cache.evict"
let c_disk_evict = Obs.counter "cache.disk_evict"

let default_dir () =
  let base =
    match Sys.getenv_opt "XDG_CACHE_HOME" with
    | Some d when d <> "" -> d
    | _ -> (
      match Sys.getenv_opt "HOME" with
      | Some h when h <> "" -> Filename.concat h ".cache"
      | _ -> Filename.get_temp_dir_name ())
  in
  Filename.concat base "sfc"

let create ?(mem_entries = 64) ?(disk = true) ?dir ?max_disk_bytes ~version
    () =
  let cache_dir =
    if disk then Some (match dir with Some d -> d | None -> default_dir ())
    else None
  in
  { mutex = Mutex.create (); tbl = Hashtbl.create 64;
    mem_entries = max 1 mem_entries; cache_dir; t_version = version;
    max_disk_bytes =
      Option.bind max_disk_bytes (fun b -> if b <= 0 then None else Some b);
    d_scanned = false; d_files = Hashtbl.create 64;
    d_used = Hashtbl.create 64; d_bytes = 0;
    tick = 0; s_mem_hits = 0; s_disk_hits = 0; s_misses = 0;
    s_evictions = 0; s_invalid = 0; s_stores = 0; s_store_failures = 0;
    s_disk_evictions = 0 }

let version t = t.t_version
let dir t = t.cache_dir

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let digest t parts =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          (Printf.sprintf "%s %d" magic t.t_version :: parts)))

let entry_path t ~key =
  Option.map (fun d -> Filename.concat d (key ^ ".art")) t.cache_dir

(* ---------------- memory layer ---------------- *)

let touch t e =
  t.tick <- t.tick + 1;
  e.e_stamp <- t.tick

(* O(n) scan for the least recently used entry; the memory layer is
   bounded to tens of entries, so simplicity wins over a linked list. *)
let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun key e ->
      match !victim with
      | Some (_, stamp) when stamp <= e.e_stamp -> ()
      | _ -> victim := Some (key, e.e_stamp))
    t.tbl;
  match !victim with
  | Some (key, _) ->
    Hashtbl.remove t.tbl key;
    t.s_evictions <- t.s_evictions + 1;
    Obs.incr c_evict
  | None -> ()

let mem_insert t key payload =
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
    let e' = { e_payload = payload; e_stamp = e.e_stamp } in
    touch t e';
    Hashtbl.replace t.tbl key e'
  | None ->
    if Hashtbl.length t.tbl >= t.mem_entries then evict_lru t;
    let e = { e_payload = payload; e_stamp = 0 } in
    touch t e;
    Hashtbl.add t.tbl key e

let mem_keys t =
  locked t (fun () ->
      Hashtbl.fold (fun key e acc -> (key, e.e_stamp) :: acc) t.tbl []
      |> List.sort (fun (_, a) (_, b) -> compare b a)
      |> List.map fst)

(* ---------------- disk byte accounting ----------------

   The disk store is bounded by [max_disk_bytes]: every write is
   recorded in an in-memory per-file size index (populated lazily by
   one directory scan), and going over budget evicts whole artifact
   sets — the [.art] entry and every sidecar of a key together, least
   recently used first — so eviction can never leave a
   sidecar-incomplete set behind. Recency survives restarts because
   disk hits also bump the entry file's mtime, which seeds [d_used] on
   the next scan. All helpers here expect [t.mutex] held. *)

(* [<key>.<rest>] -> key; dotfiles (in-flight temp files) and foreign
   names are not budget-accounted. *)
let key_of_file f =
  if String.length f = 0 || f.[0] = '.' then None
  else
    match String.index_opt f '.' with
    | None | Some 0 -> None
    | Some i -> Some (String.sub f 0 i)

let ensure_scanned t =
  if not t.d_scanned then begin
    t.d_scanned <- true;
    match t.cache_dir with
    | None -> ()
    | Some d -> (
      match Sys.readdir d with
      | exception Sys_error _ -> ()
      | files ->
        Array.iter
          (fun f ->
            match key_of_file f with
            | None -> ()
            | Some key -> (
              match Unix.stat (Filename.concat d f) with
              | exception Unix.Unix_error _ -> ()
              | st ->
                Hashtbl.replace t.d_files f st.Unix.st_size;
                t.d_bytes <- t.d_bytes + st.Unix.st_size;
                let prev =
                  Option.value (Hashtbl.find_opt t.d_used key) ~default:0.
                in
                Hashtbl.replace t.d_used key
                  (Float.max prev st.Unix.st_mtime)))
          files)
  end

let note_file_removed t fname =
  match Hashtbl.find_opt t.d_files fname with
  | None -> ()
  | Some bytes ->
    Hashtbl.remove t.d_files fname;
    t.d_bytes <- t.d_bytes - bytes

(* Whole-set removal: every file of [key] goes, or (if already gone)
   nothing does — never a partial set. *)
let evict_set t key =
  match t.cache_dir with
  | None -> ()
  | Some d ->
    let prefix = key ^ "." in
    let plen = String.length prefix in
    let victims =
      Hashtbl.fold
        (fun f _ acc ->
          if String.length f >= plen && String.sub f 0 plen = prefix then
            f :: acc
          else acc)
        t.d_files []
    in
    List.iter
      (fun f ->
        (try Sys.remove (Filename.concat d f) with Sys_error _ -> ());
        note_file_removed t f)
      victims;
    Hashtbl.remove t.d_used key;
    if victims <> [] then begin
      t.s_disk_evictions <- t.s_disk_evictions + 1;
      Obs.incr c_disk_evict
    end

let rec enforce_budget t ~keep =
  match t.max_disk_bytes with
  | None -> ()
  | Some budget ->
    if t.d_bytes > budget then begin
      let victim =
        Hashtbl.fold
          (fun key used acc ->
            if keep = Some key then acc
            else
              match acc with
              | Some (_, u) when u <= used -> acc
              | _ -> Some (key, used))
          t.d_used None
      in
      match victim with
      | None -> () (* nothing evictable (only the just-written set) *)
      | Some (key, _) ->
        evict_set t key;
        enforce_budget t ~keep
    end

let note_file_written t ~key fname =
  match t.cache_dir with
  | None -> ()
  | Some d ->
    ensure_scanned t;
    (match Unix.stat (Filename.concat d fname) with
    | exception Unix.Unix_error _ -> ()
    | st ->
      let prev =
        Option.value (Hashtbl.find_opt t.d_files fname) ~default:0
      in
      Hashtbl.replace t.d_files fname st.Unix.st_size;
      t.d_bytes <- t.d_bytes + st.Unix.st_size - prev;
      Hashtbl.replace t.d_used key (Unix.gettimeofday ()));
    enforce_budget t ~keep:(Some key)

let touch_disk_key t key =
  ensure_scanned t;
  if Hashtbl.mem t.d_used key then begin
    Hashtbl.replace t.d_used key (Unix.gettimeofday ());
    (* bump the entry mtime so recency survives a restart's rescan *)
    match entry_path t ~key with
    | Some p -> ( try Unix.utimes p 0. 0. with Unix.Unix_error _ -> ())
    | None -> ()
  end

(* ---------------- disk layer ---------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let entry_header t ~key payload =
  Printf.sprintf "%s %d %s %d\n" magic t.t_version key
    (String.length payload)

(* [Ok payload] | [Error `Missing] | [Error `Invalid]: version skew,
   foreign key, truncation and malformed headers all map to `Invalid. *)
let decode_entry t ~key data =
  match String.index_opt data '\n' with
  | None -> Error `Invalid
  | Some nl -> (
    let header = String.sub data 0 nl in
    let payload_start = nl + 1 in
    match String.split_on_char ' ' header with
    | [ m; v; k; len ]
      when m = magic
           && int_of_string_opt v = Some t.t_version
           && k = key -> (
      match int_of_string_opt len with
      | Some n when String.length data - payload_start = n ->
        Ok (String.sub data payload_start n)
      | _ -> Error `Invalid)
    | _ -> Error `Invalid)

(* caller holds t.mutex *)
let disk_remove t key =
  match entry_path t ~key with
  | Some path when Sys.file_exists path ->
    (try Sys.remove path with Sys_error _ -> ());
    note_file_removed t (key ^ ".art")
  | _ -> ()

let disk_load t key =
  match entry_path t ~key with
  | None -> Error `Missing
  | Some path ->
    if not (Sys.file_exists path) then Error `Missing
    else (
      match read_file path with
      | exception Sys_error _ -> Error `Invalid
      | data -> decode_entry t ~key data)

(* Atomic publication: write the full entry to a private temp file in
   the same directory, then rename over the final name. Readers either
   see the old entry, the new one, or none — never a partial write. *)
let disk_store t key payload =
  match t.cache_dir with
  | None -> true
  | Some d -> (
    try
      mkdir_p d;
      let tmp =
        Filename.concat d
          (Printf.sprintf ".tmp.%s.%d" key (Unix.getpid ()))
      in
      let oc = open_out_bin tmp in
      (try
         output_string oc (entry_header t ~key payload);
         output_string oc payload;
         close_out oc
       with e ->
         close_out_noerr oc;
         (try Sys.remove tmp with Sys_error _ -> ());
         raise e);
      Sys.rename tmp (Filename.concat d (key ^ ".art"));
      note_file_written t ~key (key ^ ".art");
      true
    with Sys_error _ | Unix.Unix_error _ -> false)

(* ---------------- public API ---------------- *)

let put t ~key payload =
  locked t (fun () ->
      mem_insert t key payload;
      if disk_store t key payload then t.s_stores <- t.s_stores + 1
      else t.s_store_failures <- t.s_store_failures + 1)

(* Drop [key] everywhere after a failed validation. *)
let invalidate t key =
  Hashtbl.remove t.tbl key;
  disk_remove t key;
  t.s_invalid <- t.s_invalid + 1;
  Obs.incr c_invalid

let find t ~key ~validate =
  (* Fetch under the lock, validate outside it: validation re-parses IR
     and must not serialise every concurrent worker behind one mutex. *)
  let fetched =
    locked t (fun () ->
        match Hashtbl.find_opt t.tbl key with
        | Some e ->
          touch t e;
          `Mem e.e_payload
        | None -> (
          match disk_load t key with
          | Ok payload -> `Disk payload
          | Error `Missing -> `Missing
          | Error `Invalid -> `Invalid))
  in
  let miss () =
    locked t (fun () -> t.s_misses <- t.s_misses + 1);
    Obs.incr c_miss;
    None
  in
  match fetched with
  | `Missing -> miss ()
  | `Invalid ->
    locked t (fun () -> invalidate t key);
    miss ()
  | `Mem payload -> (
    match validate payload with
    | Ok v ->
      locked t (fun () -> t.s_mem_hits <- t.s_mem_hits + 1);
      Obs.incr c_hit;
      Some v
    | Error _ ->
      locked t (fun () -> invalidate t key);
      miss ())
  | `Disk payload -> (
    match validate payload with
    | Ok v ->
      locked t (fun () ->
          mem_insert t key payload;
          touch_disk_key t key;
          t.s_disk_hits <- t.s_disk_hits + 1);
      Obs.incr c_hit;
      Some v
    | Error _ ->
      locked t (fun () -> invalidate t key);
      miss ())

let stats t =
  locked t (fun () ->
      ensure_scanned t;
      { mem_hits = t.s_mem_hits; disk_hits = t.s_disk_hits;
        misses = t.s_misses; evictions = t.s_evictions;
        invalid = t.s_invalid; stores = t.s_stores;
        store_failures = t.s_store_failures; disk_bytes = t.d_bytes;
        disk_evictions = t.s_disk_evictions })

let disk_bytes t =
  locked t (fun () ->
      ensure_scanned t;
      t.d_bytes)

(* Startup sweep: delete orphaned temp files from crashed writers,
   rebuild the byte index from the directory, and evict LRU sets down
   to the budget. Returns temp files dropped + sets evicted. *)
let sweep t =
  locked t (fun () ->
      match t.cache_dir with
      | None -> 0
      | Some d ->
        let dropped_tmp = ref 0 in
        (match Sys.readdir d with
        | exception Sys_error _ -> ()
        | files ->
          Array.iter
            (fun f ->
              if String.length f >= 5 && String.sub f 0 5 = ".tmp." then (
                try
                  Sys.remove (Filename.concat d f);
                  incr dropped_tmp
                with Sys_error _ -> ()))
            files);
        Hashtbl.reset t.d_files;
        Hashtbl.reset t.d_used;
        t.d_bytes <- 0;
        t.d_scanned <- false;
        ensure_scanned t;
        let before = t.s_disk_evictions in
        enforce_budget t ~keep:None;
        t.s_disk_evictions - before + !dropped_tmp)

(* ---------------- sidecar artifacts ---------------- *)

(* Sidecars are raw files (`<key>.<ext>`) next to the `.art` entries:
   payloads like a Dynlink'able .cmxs must stay byte-exact on disk, so
   they skip the header-framed entry format. Their integrity story is
   the stamp sidecar instead: clients write a `.stamp` describing the
   producing toolchain and [revalidate_sidecars] sweeps whole sidecar
   sets whose stamp no longer matches at startup. *)

let c_sidecar_drop = Obs.counter "cache.sidecar_drop"

let valid_ext ext =
  ext <> ""
  && ext <> "art" (* reserved for the framed entry files *)
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_')
       ext

let sidecar_path t ~key ~ext =
  if not (valid_ext ext) then
    invalid_arg ("Cache.sidecar_path: bad extension " ^ ext);
  Option.map (fun d -> Filename.concat d (key ^ "." ^ ext)) t.cache_dir

let find_sidecar t ~key ~ext =
  match sidecar_path t ~key ~ext with
  | Some path when Sys.file_exists path -> Some path
  | _ -> None

let read_sidecar t ~key ~ext =
  match find_sidecar t ~key ~ext with
  | None -> None
  | Some path -> ( try Some (read_file path) with Sys_error _ -> None)

(* Same atomic discipline as entries: write (or move) to a private name
   in the cache directory, then rename into place. *)
let publish t ~key ~ext ~install =
  match sidecar_path t ~key ~ext with
  | None -> None
  | Some path -> (
    try
      mkdir_p (Filename.dirname path);
      let tmp =
        Filename.concat (Filename.dirname path)
          (Printf.sprintf ".tmp.%s.%s.%d" key ext (Unix.getpid ()))
      in
      install tmp;
      Sys.rename tmp path;
      locked t (fun () ->
          t.s_stores <- t.s_stores + 1;
          note_file_written t ~key (key ^ "." ^ ext));
      Some path
    with Sys_error _ | Unix.Unix_error _ ->
      locked t (fun () -> t.s_store_failures <- t.s_store_failures + 1);
      None)

let put_sidecar t ~key ~ext payload =
  publish t ~key ~ext ~install:(fun tmp ->
      let oc = open_out_bin tmp in
      try
        output_string oc payload;
        close_out oc
      with e ->
        close_out_noerr oc;
        (try Sys.remove tmp with Sys_error _ -> ());
        raise e)

let adopt_sidecar t ~key ~ext ~file =
  publish t ~key ~ext ~install:(fun tmp -> Sys.rename file tmp)

(* Every extension ever published under [key]; `.art` is not a sidecar. *)
let sidecar_exts t ~key =
  match t.cache_dir with
  | None -> []
  | Some d ->
    let prefix = key ^ "." in
    let plen = String.length prefix in
    (match Sys.readdir d with
    | exception Sys_error _ -> []
    | files ->
      Array.to_list files
      |> List.filter_map (fun f ->
             if String.length f > plen && String.sub f 0 plen = prefix then
               let ext = String.sub f plen (String.length f - plen) in
               if valid_ext ext then Some ext else None
             else None))

let remove_sidecars t ~key =
  let removed =
    List.filter_map
      (fun ext ->
        match sidecar_path t ~key ~ext with
        | Some path -> (
          try
            Sys.remove path;
            Some (key ^ "." ^ ext)
          with Sys_error _ -> None)
        | None -> None)
      (sidecar_exts t ~key)
  in
  if removed <> [] then
    locked t (fun () -> List.iter (note_file_removed t) removed)

let revalidate_sidecars t ~stamp =
  match t.cache_dir with
  | None -> 0
  | Some d -> (
    match Sys.readdir d with
    | exception Sys_error _ -> 0
    | files ->
      Array.fold_left
        (fun dropped f ->
          if Filename.check_suffix f ".stamp" then (
            let key = Filename.chop_suffix f ".stamp" in
            let current =
              try Some (read_file (Filename.concat d f))
              with Sys_error _ -> None
            in
            match current with
            | Some s when s = stamp -> dropped
            | _ ->
            begin
              remove_sidecars t ~key;
              locked t (fun () -> t.s_invalid <- t.s_invalid + 1);
              Obs.incr c_sidecar_drop;
              dropped + 1
            end)
          else dropped)
        0 files)
