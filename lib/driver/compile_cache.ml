(* Cached compilation: serialize compiled artifacts as printed IR plus
   metadata, keyed by a content digest of everything that defines them.
   The warm path (find -> decode -> link) must skip every pipeline
   stage before "link + kernel compile" — the obs spans of a warm run
   are the contract the cache tests pin down. *)

open Fsc_ir
module Obs = Fsc_obs.Obs
module J = Fsc_obs.Obs.Json
module Cache = Fsc_cache.Cache
module P = Pipeline

(* v2: compiled artifacts carry per-kernel affine footprints; entries
   written by v1 lack them and must recompile. v3: the printed modules
   follow a JSON header line as raw text instead of JSON strings. *)
let format_version = 3

let create_cache ?mem_entries ?disk ?dir ?max_disk_bytes () =
  Cache.create ?mem_entries ?disk ?dir ?max_disk_bytes
    ~version:format_version ()

let key cache (options : P.options) src =
  Cache.digest cache
    [ "target:" ^ P.target_kind options.P.opt_target;
      (* the two pipeline constants stay in the key so that editing
         either re-keys every artifact: the GPU tile shapes the Listing-4
         IR, the cache budget the cpu_tile annotations baked into the
         stencil IR (the execution engine, by contrast, is link-time
         state) *)
      "tiles:" ^ String.concat "," (List.map string_of_int P.gpu_tile_sizes);
      "merge:" ^ string_of_bool options.P.opt_merge;
      "l2:" ^ string_of_int P.cpu_l2_kb;
      src ]

(* ---------------- serialization ----------------

   An entry is one JSON header line, then the printed [host], [stencil]
   and (GPU targets only) [gpu_ir] modules back to back, unescaped:

     {"format":3,"target":...,"sections":{"host":H,"stencil":S,"gpu_ir":G}}\n
     <H bytes of host IR><S bytes of stencil IR><G bytes of GPU IR>

   The modules are printed straight into one buffer, copied once behind
   the header line. *)

let encode (ca : P.compiled_artifact) =
  let body = Buffer.create 16384 in
  let section m =
    let start = Buffer.length body in
    Printer.to_buffer body m;
    J.Num (float_of_int (Buffer.length body - start))
  in
  let host = section ca.P.ca_host in
  let stencil = section ca.P.ca_stencil in
  let gpu_ir =
    match ca.P.ca_gpu_ir with Some m -> section m | None -> J.Null
  in
  let strings l = J.List (List.map (fun s -> J.Str s) l) in
  let header =
    J.to_string
      (J.Obj
         [ ("format", J.Num (float_of_int format_version));
           ("target", J.Str (P.target_kind ca.P.ca_options.P.opt_target));
           ("kernels", strings ca.P.ca_kernels);
           ("managed", strings ca.P.ca_managed);
           ("footprints",
            J.List
              (List.map
                 (fun (name, fp) ->
                   J.Obj
                     [ ("kernel", J.Str name);
                       ("regions",
                        J.Str (Fsc_analysis.Footprint.to_string fp)) ])
                 ca.P.ca_footprints));
           ("stats",
            J.Obj
              [ ("discovered",
                 J.Num (float_of_int ca.P.ca_stats.P.st_discovered));
                ("merged", J.Num (float_of_int ca.P.ca_stats.P.st_merged));
                ("kernels", J.Num (float_of_int ca.P.ca_stats.P.st_kernels))
              ]);
           ("sections",
            J.Obj [ ("host", host); ("stencil", stencil); ("gpu_ir", gpu_ir) ])
         ])
  in
  let hl = String.length header in
  let entry = Bytes.create (hl + 1 + Buffer.length body) in
  Bytes.blit_string header 0 entry 0 hl;
  Bytes.set entry hl '\n';
  Buffer.blit body 0 entry (hl + 1) (Buffer.length body);
  Bytes.unsafe_to_string entry

let ( let* ) = Result.bind

let member_exn name payload =
  match J.member name payload with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let as_str name = function
  | J.Str s -> Ok s
  | _ -> Error (Printf.sprintf "field %S is not a string" name)

let as_int name = function
  | J.Num f -> Ok (int_of_float f)
  | _ -> Error (Printf.sprintf "field %S is not a number" name)

let as_strings name = function
  | J.List l ->
    List.fold_right
      (fun v acc ->
        let* acc = acc in
        let* s = as_str name v in
        Ok (s :: acc))
      l (Ok [])
  | _ -> Error (Printf.sprintf "field %S is not a list" name)

let parse_ir name text =
  match Parser.parse_module_result text with
  | Ok m -> Ok m
  | Error e -> Error (Printf.sprintf "%s module: %s" name e)

let as_length name = function
  | J.Num f
    when Float.is_integer f && f >= 0.
         && f <= float_of_int Sys.max_string_length ->
    Ok (int_of_float f)
  | _ -> Error (Printf.sprintf "section %S has no valid length" name)

(* The header line and the (offset, length) of each IR section; the
   lengths must account for every byte after the header. *)
let split_entry payload =
  let* nl =
    match String.index_opt payload '\n' with
    | Some nl -> Ok nl
    | None -> Error "payload: no header line"
  in
  let* json =
    match J.of_string (String.sub payload 0 nl) with
    | j -> Ok j
    | exception J.Parse_error e -> Error ("header: " ^ e)
  in
  let* sections = member_exn "sections" json in
  let* host = member_exn "host" sections in
  let* host = as_length "host" host in
  let* stencil = member_exn "stencil" sections in
  let* stencil = as_length "stencil" stencil in
  let* gpu_ir =
    match J.member "gpu_ir" sections with
    | None | Some J.Null -> Ok None
    | Some v ->
      let* n = as_length "gpu_ir" v in
      Ok (Some n)
  in
  let start = nl + 1 in
  let total = host + stencil + Option.value gpu_ir ~default:0 in
  if start + total <> String.length payload then
    Error
      (Printf.sprintf "sections hold %d bytes, the payload %d" total
         (String.length payload - start))
  else
    Ok
      ( json,
        (start, host),
        (start + host, stencil),
        Option.map (fun n -> (start + host + stencil, n)) gpu_ir )

(* Decoding IS the revalidation: header, format version, section
   lengths, a full parser round-trip per module, recomputed footprints
   and a host verification — any failure means the entry is evicted by
   the cache layer above. *)
let decode (options : P.options) payload =
  Obs.with_span ~cat:"pipeline" "cache revalidate" @@ fun () ->
  let* json, host, stencil, gpu_ir = split_entry payload in
  let section name (pos, len) = parse_ir name (String.sub payload pos len) in
  let* format = member_exn "format" json in
  let* format = as_int "format" format in
  if format <> format_version then
    Error
      (Printf.sprintf "format version %d, expected %d" format format_version)
  else
    let* tk = member_exn "target" json in
    let* tk = as_str "target" tk in
    if tk <> P.target_kind options.P.opt_target then
      Error
        (Printf.sprintf "target %s, expected %s" tk
           (P.target_kind options.P.opt_target))
    else
      let* host = section "host" host in
      let* stencil = section "stencil" stencil in
      let* gpu_ir =
        match gpu_ir with
        | None -> Ok None
        | Some s ->
          let* m = section "gpu_ir" s in
          Ok (Some m)
      in
      let* kernels = member_exn "kernels" json in
      let* kernels = as_strings "kernels" kernels in
      let* managed = member_exn "managed" json in
      let* managed = as_strings "managed" managed in
      let* stored_fps =
        let* v = member_exn "footprints" json in
        match v with
        | J.List l ->
          List.fold_right
            (fun entry acc ->
              let* acc = acc in
              let* name = member_exn "kernel" entry in
              let* name = as_str "kernel" name in
              let* regions = member_exn "regions" entry in
              let* regions = as_str "regions" regions in
              Ok ((name, regions) :: acc))
            l (Ok [])
        | _ -> Error "field \"footprints\" is not a list"
      in
      (* decoding is revalidation: recompute every footprint from the
         parsed stencil IR and demand it matches what was stored — a
         drifted analysis (or corrupted entry) evicts rather than
         serving stale footprints *)
      let* footprints =
        let funcs = Fsc_dialects.Func.all_functions stencil in
        let recomputed =
          List.filter_map
            (fun f ->
              let n = Fsc_dialects.Func.name f in
              if not (List.mem n kernels) then None
              else
                match Fsc_rt.Kernel_compile.try_analyze f with
                | Ok spec -> Some (n, Fsc_analysis.Footprint.of_spec spec)
                | Error _ -> None)
            funcs
        in
        let canon =
          List.map
            (fun (n, fp) -> (n, Fsc_analysis.Footprint.to_string fp))
            recomputed
        in
        if canon = stored_fps then Ok recomputed
        else Error "footprints do not match the stencil IR"
      in
      let* st = member_exn "stats" json in
      let* discovered = member_exn "discovered" st in
      let* discovered = as_int "discovered" discovered in
      let* merged = member_exn "merged" st in
      let* merged = as_int "merged" merged in
      let* st_kernels = member_exn "kernels" st in
      let* st_kernels = as_int "kernels" st_kernels in
      let* () =
        match
          Verifier.verify_in_context_exn (Dialect.flang_context ()) host
        with
        | () -> Ok ()
        | exception e -> Error ("host verification: " ^ Printexc.to_string e)
      in
      Ok
        { P.ca_host = host; P.ca_stencil = stencil; P.ca_gpu_ir = gpu_ir;
          P.ca_kernels = kernels; P.ca_managed = managed;
          P.ca_footprints = footprints;
          P.ca_stats =
            { P.st_discovered = discovered; P.st_merged = merged;
              P.st_kernels = st_kernels };
          P.ca_options = options }

(* ---------------- cached compile ---------------- *)

let compile ?cache options src =
  match cache with
  | None -> (P.compile options src, `Off)
  | Some c -> (
    let key = key c options src in
    match
      Obs.with_span ~cat:"pipeline" ~alloc:true "cache lookup" (fun () ->
          Cache.find c ~key ~validate:(decode options))
    with
    | Some ca -> (ca, `Hit)
    | None ->
      let ca = P.compile options src in
      (* category "cache", not "pipeline": the store is not a compile
         stage, and stage sums over "pipeline" spans must not count it *)
      Obs.with_span ~cat:"cache" ~alloc:true "cache store" (fun () ->
          Cache.put c ~key (encode ca));
      (ca, `Miss))
