(* Artifact-cache tests: digest stability, LRU eviction order, crash
   safety of the on-disk store (truncation, version skew), and the
   end-to-end contract — cold -> warm round trips must produce
   bit-identical grids on every benchmark program and target while
   skipping the entire front half of the pipeline (checked through the
   obs spans of the warm compile). *)

module C = Fsc_cache.Cache
module P = Fsc_driver.Pipeline
module Cc = Fsc_driver.Compile_cache
module B = Fsc_driver.Benchmarks
module Rt = Fsc_rt.Memref_rt
module Obs = Fsc_obs.Obs

let tmp_dir () =
  let d = Filename.temp_file "fsc_cache_test" "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let ok_validate s = Ok s

(* ---- digests ---- *)

let test_digest_stability () =
  let c = C.create ~disk:false ~version:1 () in
  Alcotest.(check string)
    "same parts, same key"
    (C.digest c [ "src"; "serial" ])
    (C.digest c [ "src"; "serial" ]);
  Alcotest.(check bool)
    "different part, different key" false
    (C.digest c [ "src"; "serial" ] = C.digest c [ "src"; "openmp" ]);
  Alcotest.(check bool)
    "parts are not concatenation-ambiguous" false
    (C.digest c [ "ab"; "" ] = C.digest c [ "a"; "b" ]);
  let c2 = C.create ~disk:false ~version:2 () in
  Alcotest.(check bool)
    "version is part of the key" false
    (C.digest c [ "src" ] = C.digest c2 [ "src" ])

(* ---- LRU ---- *)

let test_lru_eviction_order () =
  let c = C.create ~disk:false ~mem_entries:2 ~version:1 () in
  C.put c ~key:"k1" "v1";
  C.put c ~key:"k2" "v2";
  (* touch k1 so k2 becomes the LRU entry *)
  Alcotest.(check (option string))
    "k1 hit" (Some "v1")
    (C.find c ~key:"k1" ~validate:ok_validate);
  C.put c ~key:"k3" "v3";
  Alcotest.(check (list string))
    "k2 evicted, MRU order" [ "k3"; "k1" ] (C.mem_keys c);
  Alcotest.(check (option string))
    "k2 gone" None
    (C.find c ~key:"k2" ~validate:ok_validate);
  Alcotest.(check int) "one eviction" 1 (C.stats c).C.evictions

(* ---- disk store ---- *)

let test_disk_round_trip () =
  let dir = tmp_dir () in
  let c = C.create ~dir ~version:1 () in
  let key = C.digest c [ "some source" ] in
  C.put c ~key "the payload";
  (* a fresh cache on the same directory simulates a new process: the
     memory layer is cold, so this must come from disk *)
  let c2 = C.create ~dir ~version:1 () in
  Alcotest.(check (option string))
    "disk hit" (Some "the payload")
    (C.find c2 ~key ~validate:ok_validate);
  Alcotest.(check int) "counted as disk hit" 1 (C.stats c2).C.disk_hits

let test_truncated_entry_evicted () =
  let dir = tmp_dir () in
  let c = C.create ~dir ~version:1 () in
  let key = C.digest c [ "will be truncated" ] in
  C.put c ~key "a payload that will lose its tail in the crash";
  let path = Option.get (C.entry_path c ~key) in
  (* simulate a crash that left a torn entry behind *)
  let full = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub full 0 (String.length full / 2)));
  let c2 = C.create ~dir ~version:1 () in
  Alcotest.(check (option string))
    "truncated entry is a miss" None
    (C.find c2 ~key ~validate:ok_validate);
  Alcotest.(check bool) "entry file deleted" false (Sys.file_exists path);
  Alcotest.(check int) "counted invalid" 1 (C.stats c2).C.invalid

let test_version_mismatch_evicted () =
  let dir = tmp_dir () in
  let c = C.create ~dir ~version:1 () in
  let key = C.digest c [ "versioned" ] in
  C.put c ~key "payload";
  (* same key string, newer format version *)
  let c2 = C.create ~dir ~version:2 () in
  Alcotest.(check (option string))
    "old-version entry is a miss" None
    (C.find c2 ~key ~validate:ok_validate);
  Alcotest.(check bool)
    "old entry deleted" false
    (Sys.file_exists (Option.get (C.entry_path c2 ~key)))

let test_failed_validation_evicts_everywhere () =
  let dir = tmp_dir () in
  let c = C.create ~dir ~version:1 () in
  let key = C.digest c [ "rotten" ] in
  C.put c ~key "payload";
  Alcotest.(check (option string))
    "validator rejects" None
    (C.find c ~key ~validate:(fun _ -> Error "rotten"));
  (* gone from the memory layer AND the disk *)
  Alcotest.(check (option string))
    "subsequent lookup misses" None
    (C.find c ~key ~validate:ok_validate);
  Alcotest.(check bool)
    "file gone" false
    (Sys.file_exists (Option.get (C.entry_path c ~key)))

(* ---- disk byte budget ---- *)

(* payloads of 100 bytes frame to 149-byte entry files (49-byte header),
   so the byte math below is exact *)
let test_disk_budget_lru_eviction () =
  let dir = tmp_dir () in
  let c = C.create ~dir ~max_disk_bytes:400 ~version:1 () in
  let key i = C.digest c [ string_of_int i ] in
  C.put c ~key:(key 1) (String.make 100 'a');
  C.put c ~key:(key 2) (String.make 100 'b');
  Alcotest.(check int) "two entries accounted" 298 (C.disk_bytes c);
  (* the third write busts the budget: the oldest set goes *)
  C.put c ~key:(key 3) (String.make 100 'c');
  Alcotest.(check bool) "budget respected" true (C.disk_bytes c <= 400);
  Alcotest.(check bool)
    "oldest entry evicted" false
    (Sys.file_exists (Option.get (C.entry_path c ~key:(key 1))));
  Alcotest.(check bool)
    "recent entry kept" true
    (Sys.file_exists (Option.get (C.entry_path c ~key:(key 2))));
  Alcotest.(check bool)
    "new entry kept" true
    (Sys.file_exists (Option.get (C.entry_path c ~key:(key 3))));
  Alcotest.(check int) "one set eviction counted" 1
    (C.stats c).C.disk_evictions;
  (* a fresh process sees the post-eviction truth *)
  let c2 = C.create ~dir ~version:1 () in
  Alcotest.(check (option string))
    "evicted key misses from disk" None
    (C.find c2 ~key:(key 1) ~validate:ok_validate)

let test_disk_budget_whole_set_eviction () =
  let dir = tmp_dir () in
  let c = C.create ~dir ~max_disk_bytes:500 ~version:1 () in
  let k1 = C.digest c [ "set1" ] in
  C.put c ~key:k1 (String.make 100 'a');
  ignore (C.put_sidecar c ~key:k1 ~ext:"ml" (String.make 100 'm'));
  ignore (C.put_sidecar c ~key:k1 ~ext:"stamp" "v1");
  let k2 = C.digest c [ "set2" ] in
  C.put c ~key:k2 (String.make 100 'b');
  let k3 = C.digest c [ "set3" ] in
  C.put c ~key:k3 (String.make 200 'c');
  (* k1 (entry + 2 sidecars) was LRU: the whole set must go together —
     never the entry without its sidecars or vice versa *)
  Alcotest.(check bool) "budget respected" true (C.disk_bytes c <= 500);
  Alcotest.(check bool)
    "evicted entry gone" false
    (Sys.file_exists (Option.get (C.entry_path c ~key:k1)));
  Alcotest.(check (list string))
    "evicted sidecars gone with it" [] (C.sidecar_exts c ~key:k1);
  Alcotest.(check bool)
    "survivor intact" true
    (Sys.file_exists (Option.get (C.entry_path c ~key:k2)))

let test_disk_sweep () =
  let dir = tmp_dir () in
  let c = C.create ~dir ~version:1 () in
  let keys =
    List.init 4 (fun i ->
        let k = C.digest c [ Printf.sprintf "sweep%d" i ] in
        C.put c ~key:k (String.make 100 (Char.chr (Char.code 'a' + i)));
        ignore (C.put_sidecar c ~key:k ~ext:"stamp" "s1");
        k)
  in
  (* an orphaned temp file from a crashed writer *)
  let orphan = Filename.concat dir ".tmp.deadbeef.12345" in
  Out_channel.with_open_bin orphan (fun oc ->
      Out_channel.output_string oc "junk");
  let c2 = C.create ~dir ~max_disk_bytes:320 ~version:1 () in
  let dropped = C.sweep c2 in
  Alcotest.(check bool) "sweep dropped temp + sets" true (dropped >= 2);
  Alcotest.(check bool) "orphan temp removed" false (Sys.file_exists orphan);
  Alcotest.(check bool) "budget enforced" true (C.disk_bytes c2 <= 320);
  (* every surviving set is complete: entry and stamp live or die
     together *)
  List.iter
    (fun k ->
      let entry = Sys.file_exists (Option.get (C.entry_path c2 ~key:k)) in
      let stamp = C.sidecar_exts c2 ~key:k <> [] in
      Alcotest.(check bool)
        "set completeness preserved across sweep" entry stamp)
    keys;
  Alcotest.(check bool) "something survived" true
    (List.exists
       (fun k -> Sys.file_exists (Option.get (C.entry_path c2 ~key:k)))
       keys)

(* ---- sidecar artifacts ---- *)

let test_sidecar_round_trip () =
  let dir = tmp_dir () in
  let c = C.create ~dir ~version:1 () in
  let key = C.digest c [ "sidecar"; "roundtrip" ] in
  (match C.put_sidecar c ~key ~ext:"ml" "let x = 1" with
  | Some path ->
    Alcotest.(check bool) "published file exists" true (Sys.file_exists path)
  | None -> Alcotest.fail "put_sidecar failed on a disk cache");
  Alcotest.(check (option string))
    "payload read back" (Some "let x = 1")
    (C.read_sidecar c ~key ~ext:"ml");
  (* adopt: rename a file built under the cache dir into place *)
  let built = Filename.concat dir "built.tmp" in
  Out_channel.with_open_bin built (fun oc ->
      Out_channel.output_string oc "plugin bytes");
  (match C.adopt_sidecar c ~key ~ext:"cmxs" ~file:built with
  | Some _ -> ()
  | None -> Alcotest.fail "adopt_sidecar failed");
  Alcotest.(check bool) "source renamed away" false (Sys.file_exists built);
  Alcotest.(check (option string))
    "adopted payload readable" (Some "plugin bytes")
    (C.read_sidecar c ~key ~ext:"cmxs");
  Alcotest.(check (list string))
    "extensions listed" [ "cmxs"; "ml" ]
    (List.sort compare (C.sidecar_exts c ~key));
  C.remove_sidecars c ~key;
  Alcotest.(check (list string)) "all removed" [] (C.sidecar_exts c ~key)

(* ".art" is the framed entry format; handing it out as a sidecar
   extension would let remove_sidecars delete validated entries *)
let test_sidecar_reserved_ext () =
  let c = C.create ~dir:(tmp_dir ()) ~version:1 () in
  Alcotest.check_raises "art is reserved"
    (Invalid_argument "Cache.sidecar_path: bad extension art") (fun () ->
      ignore (C.put_sidecar c ~key:"k" ~ext:"art" "x"))

let test_revalidate_drops_stale_sidecars () =
  let dir = tmp_dir () in
  let c = C.create ~dir ~version:1 () in
  let key = C.digest c [ "stale-sidecars" ] in
  C.put c ~key "entry payload";
  ignore (C.put_sidecar c ~key ~ext:"cmxs" "plugin");
  ignore (C.put_sidecar c ~key ~ext:"stamp" "compiler-A");
  Alcotest.(check int) "matching stamp keeps the set" 0
    (C.revalidate_sidecars c ~stamp:"compiler-A");
  Alcotest.(check int) "mismatch drops one set" 1
    (C.revalidate_sidecars c ~stamp:"compiler-B");
  Alcotest.(check (list string))
    "sidecars gone" [] (C.sidecar_exts c ~key);
  (* the framed .art entry survives the sweep *)
  Alcotest.(check (option string))
    "entry survives" (Some "entry payload")
    (C.find c ~key ~validate:ok_validate)

(* ---- native JIT artifacts through the cache ---- *)

module N = Fsc_codegen.Native
module E = Fsc_codegen.Emit
module Bld = Fsc_codegen.Build
module Kc = Fsc_rt.Kernel_compile

(* a tiny 1-D kernel; [c] keeps each spec's emitted source — and so its
   cache key — unique per test site *)
let native_spec c =
  { Kc.k_nests =
      [ { Kc.n_loops =
            [ { Kc.l_level = 0; l_dim = 0; l_lb = 0; l_ub = 8;
                l_parallel = false } ];
          n_stores =
            [ { Kc.st_buf = 1; st_index = [ Kc.Iv (0, 0) ];
                st_expr =
                  Kc.F_binary
                    ("arith.mulf", Kc.F_load (0, [ Kc.Iv (0, 0) ]),
                     Kc.F_const c) } ];
          n_uses_iv = false; n_flops_per_cell = 1; n_loads_per_cell = 1 } ];
    k_num_bufs = 2; k_num_scalars = 0 }

let native_bufs () =
  let b0 = Rt.create [ 8 ] and b1 = Rt.create [ 8 ] in
  Rt.init b0 (fun i -> float_of_int i +. 0.5);
  Rt.init b1 (fun _ -> 0.0);
  [| b0; b1 |]

let run_native ctx ~name sp =
  let k = N.prepare ctx ~name sp in
  let bufs = native_bufs () in
  N.run k ~bufs ~scalars:[||] ();
  (N.report k, bufs.(1))

let cmxs_files dir =
  List.filter
    (fun f -> Filename.check_suffix f ".cmxs")
    (Array.to_list (Sys.readdir dir))

let test_native_warm_cold_round_trip () =
  let dir = tmp_dir () in
  let sync_ctx () =
    N.create ~cache:(C.create ~dir ~version:N.format_version ()) ~mode:N.Sync ()
  in
  let ctx = sync_ctx () in
  if N.toolchain_error ctx <> None then
    print_endline "  [skip] native toolchain unavailable"
  else begin
    let sp = native_spec 4.75 in
    let reference = native_bufs () in
    Kc.run sp ~bufs:reference ~scalars:[||] ();
    (* cold: builds and publishes the ml/cmxs/stamp sidecar set *)
    let r1, out1 = run_native ctx ~name:"roundtrip" sp in
    Alcotest.(check bool) "cold is a build" true
      (r1.N.rp_origin = Some N.Origin_built);
    Alcotest.(check bool) "cold reports build time" true
      (r1.N.rp_build_ms <> None);
    Alcotest.(check (float 0.)) "cold bitwise" 0.0
      (Rt.max_abs_diff reference.(1) out1);
    Alcotest.(check int) "one plugin on disk" 1
      (List.length (cmxs_files dir));
    (* warm, same process: a fresh ctx over the same directory reuses
       the resident plugin — zero recompiles *)
    let r2, out2 = run_native (sync_ctx ()) ~name:"roundtrip2" sp in
    Alcotest.(check bool) "warm run never rebuilds" true
      (r2.N.rp_origin = Some N.Origin_memo && r2.N.rp_build_ms = None);
    Alcotest.(check (float 0.)) "warm bitwise" 0.0
      (Rt.max_abs_diff reference.(1) out2);
    Alcotest.(check int) "still one plugin on disk" 1
      (List.length (cmxs_files dir));
    (* warm across processes: plant a plugin compiled out-of-band under
       a key this process never loaded, and watch a fresh ctx Dynlink
       it straight from the cache (the key recipe mirrors native.ml) *)
    let sp2 = native_spec 9.25 in
    let tc = match Bld.probe () with Ok tc -> tc | Error e -> Alcotest.fail e in
    let e =
      match E.emit ~strides:[| 1 |] sp2 with
      | Ok e -> e
      | Error e -> Alcotest.fail e
    in
    let cache = C.create ~dir ~version:N.format_version () in
    let key =
      C.digest cache
        [ "native"; string_of_int N.format_version; Bld.stamp tc; E.body e ]
    in
    let ml = Filename.concat dir ("sfc_native_" ^ key ^ ".ml") in
    Out_channel.with_open_bin ml (fun oc ->
        Out_channel.output_string oc (E.module_source e ~key));
    let out = Filename.concat dir ("sfc_native_" ^ key ^ ".cmxs") in
    (match Bld.compile tc ~ml ~out with
    | Ok () -> ()
    | Error e -> Alcotest.failf "out-of-band compile: %s" e);
    ignore (C.adopt_sidecar cache ~key ~ext:"cmxs" ~file:out);
    ignore (C.put_sidecar cache ~key ~ext:"stamp" (Bld.stamp tc));
    Sys.remove ml;
    let reference2 = native_bufs () in
    Kc.run sp2 ~bufs:reference2 ~scalars:[||] ();
    let r3, out3 = run_native (sync_ctx ()) ~name:"planted" sp2 in
    Alcotest.(check bool) "planted plugin is a warm cache hit" true
      (r3.N.rp_origin = Some N.Origin_cache && r3.N.rp_build_ms = None);
    Alcotest.(check (float 0.)) "cache-hit bitwise" 0.0
      (Rt.max_abs_diff reference2.(1) out3)
  end

(* ---- cold -> warm compilation round trips ---- *)

let programs =
  [ ("gauss-seidel", B.gauss_seidel ~nx:8 ~ny:8 ~nz:8 ~niter:2 (), [ "u" ]);
    ("pw-advection", B.pw_advection ~nx:8 ~ny:8 ~nz:8 ~niter:2 (),
     [ "su"; "sv"; "sw" ]) ]

let targets =
  [ P.Serial; P.Openmp 2; P.Gpu P.Gpu_initial; P.Gpu P.Gpu_optimised ]

let grids_of artifact names =
  List.map (fun n -> (n, P.buffer_exn artifact n)) names

let run_linked ca names =
  let a = P.link ca in
  Fun.protect
    ~finally:(fun () -> P.shutdown a)
    (fun () ->
      P.run a;
      grids_of a names)

let front_half_spans =
  [ "frontend"; "discovery"; "merge"; "extraction"; "gpu data placement";
    "stencil-to-scf"; "canonicalize"; "loop specialisation";
    "scf-to-openmp" ]

let span_count name =
  List.length
    (List.filter (fun e -> e.Obs.e_name = name) (Obs.events_with_cat "pipeline"))

let check_round_trip (pname, src, names) target =
  let label = pname ^ "/" ^ P.target_name target in
  (* ground truth: the uncached pipeline *)
  let a0, _ = P.stencil ~target src in
  P.run a0;
  let reference = grids_of a0 names in
  P.shutdown a0;
  let dir = tmp_dir () in
  let options = P.default_options ~target () in
  (* cold: miss, populates the store *)
  let cache = Cc.create_cache ~dir () in
  let ca_cold, outcome = Cc.compile ~cache options src in
  Alcotest.(check bool) (label ^ ": cold is a miss") true (outcome = `Miss);
  let cold = run_linked ca_cold names in
  (* warm, fresh cache instance on the same dir: everything comes back
     through print -> disk -> parse; the front half must not run *)
  let cache2 = Cc.create_cache ~dir () in
  Obs.reset ();
  Obs.set_enabled true;
  let ca_warm, outcome = Cc.compile ~cache:cache2 options src in
  Obs.set_enabled false;
  Alcotest.(check bool) (label ^ ": warm is a hit") true (outcome = `Hit);
  List.iter
    (fun stage ->
      Alcotest.(check int)
        (Printf.sprintf "%s: warm compile never ran %S" label stage)
        0 (span_count stage))
    front_half_spans;
  Alcotest.(check bool)
    (label ^ ": warm compile revalidated the entry")
    true
    (span_count "cache revalidate" > 0);
  let warm = run_linked ca_warm names in
  (* all three executions bit-identical *)
  List.iter
    (fun (name, reference_buf) ->
      Alcotest.(check (float 0.))
        (label ^ ": cold " ^ name ^ " identical to uncached")
        0.0
        (Rt.max_abs_diff reference_buf (List.assoc name cold));
      Alcotest.(check (float 0.))
        (label ^ ": warm " ^ name ^ " identical to uncached")
        0.0
        (Rt.max_abs_diff reference_buf (List.assoc name warm)))
    reference;
  Alcotest.(check int)
    (label ^ ": stats survive the round trip")
    ca_cold.P.ca_stats.P.st_kernels ca_warm.P.ca_stats.P.st_kernels

let test_round_trip_all () =
  List.iter
    (fun program -> List.iter (check_round_trip program) targets)
    programs

let test_memory_warm_hit () =
  let src = B.gauss_seidel ~nx:6 ~ny:6 ~nz:6 ~niter:1 () in
  let cache = Cc.create_cache ~disk:false () in
  let options = P.default_options () in
  let _, o1 = Cc.compile ~cache options src in
  let _, o2 = Cc.compile ~cache options src in
  Alcotest.(check bool) "first miss" true (o1 = `Miss);
  Alcotest.(check bool) "second hit (memory)" true (o2 = `Hit);
  Alcotest.(check int) "memory hit counted" 1 (C.stats cache).C.mem_hits

(* The OpenMP pool size is a link-time parameter: one cached artifact
   serves every thread count, and the requested count wins. *)
let test_thread_count_not_in_key () =
  let src = B.gauss_seidel ~nx:6 ~ny:6 ~nz:6 ~niter:1 () in
  let cache = Cc.create_cache ~disk:false () in
  let _, o1 = Cc.compile ~cache (P.default_options ~target:(P.Openmp 2) ()) src in
  let ca, o2 =
    Cc.compile ~cache (P.default_options ~target:(P.Openmp 4) ()) src
  in
  Alcotest.(check bool) "cold under 2 threads" true (o1 = `Miss);
  Alcotest.(check bool) "warm under 4 threads" true (o2 = `Hit);
  Alcotest.(check bool)
    "requested thread count attached" true
    (ca.P.ca_options.P.opt_target = P.Openmp 4)

(* ---- v3 entries: corruption, the store span, allocation ---- *)

module J = Fsc_obs.Obs.Json

let v3_src = B.gauss_seidel ~nx:6 ~ny:6 ~nz:6 ~niter:2 ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* The entry file is "sfc-cache <version> <key> <bytes>\n<payload>";
   [with_payload] rewrites the payload and keeps that framing valid, so
   only the compile cache's own decoder can reject the result. *)
let split_file data =
  let nl = String.index data '\n' in
  (String.sub data 0 nl, String.sub data (nl + 1) (String.length data - nl - 1))

let with_payload ?version path f =
  let header, payload = split_file (read_file path) in
  let payload = f payload in
  match String.split_on_char ' ' header with
  | [ magic; v; key; _ ] ->
    write_file path
      (Printf.sprintf "%s %s %s %d\n%s" magic
         (match version with Some v -> string_of_int v | None -> v)
         key (String.length payload) payload)
  | _ -> Alcotest.fail "unexpected entry framing"

(* Byte offset and length of a section, read off the header line. *)
let section payload name =
  let nl = String.index payload '\n' in
  let sections =
    Option.get (J.member "sections" (J.of_string (String.sub payload 0 nl)))
  in
  let len s =
    match J.member s sections with
    | Some (J.Num f) -> int_of_float f
    | _ -> 0
  in
  match name with
  | "host" -> (nl + 1, len "host")
  | _ -> (nl + 1 + len "host", len "stencil")

let set_stencil_length payload n =
  let _, len = section payload "stencil" in
  let nl = String.index payload '\n' in
  let header = String.sub payload 0 nl in
  let from = Printf.sprintf "\"stencil\":%d" len in
  let i = Str.search_forward (Str.regexp_string from) header 0 in
  String.sub header 0 i
  ^ Printf.sprintf "\"stencil\":%d" n
  ^ String.sub header (i + String.length from)
      (String.length header - i - String.length from)
  ^ String.sub payload nl (String.length payload - nl)

let run_grid ca =
  let a = P.link ca in
  Fun.protect
    ~finally:(fun () -> P.shutdown a)
    (fun () ->
      P.run a;
      Rt.clone (P.buffer_exn a "u"))

(* Damage the entry a cold compile stored, then compile again through a
   fresh cache on the same directory: the damaged entry must be evicted
   (never raised on), the compile must miss and store a good entry, and
   both that run and the next warm hit must match the uncached run bit
   for bit. *)
let check_corruption label damage =
  let options = P.default_options () in
  let reference = run_grid (P.compile options v3_src) in
  let dir = tmp_dir () in
  let cache = Cc.create_cache ~dir () in
  let _, cold = Cc.compile ~cache options v3_src in
  Alcotest.(check bool) (label ^ ": cold miss") true (cold = `Miss);
  let key = Cc.key cache options v3_src in
  let path = Option.get (C.entry_path cache ~key) in
  damage path;
  let cache2 = Cc.create_cache ~dir () in
  let ca, outcome = Cc.compile ~cache:cache2 options v3_src in
  Alcotest.(check bool) (label ^ ": recompiled") true (outcome = `Miss);
  Alcotest.(check int) (label ^ ": evicted as invalid") 1
    (C.stats cache2).C.invalid;
  Alcotest.(check (float 0.)) (label ^ ": recompiled run bitwise") 0.0
    (Rt.max_abs_diff reference (run_grid ca));
  let cache3 = Cc.create_cache ~dir () in
  let warm, outcome = Cc.compile ~cache:cache3 options v3_src in
  Alcotest.(check bool) (label ^ ": then a warm hit") true (outcome = `Hit);
  Alcotest.(check (float 0.)) (label ^ ": warm run bitwise") 0.0
    (Rt.max_abs_diff reference (run_grid warm))

let test_truncated_section () =
  check_corruption "truncated section" (fun path ->
      with_payload path (fun p -> String.sub p 0 (String.length p - 40)))

let test_section_past_payload () =
  check_corruption "section past payload" (fun path ->
      with_payload path (fun p ->
          let _, len = section p "stencil" in
          set_stencil_length p (len + 1000)))

let test_flipped_stencil_byte () =
  (* the byte that opens the stencil section's module: a flipped byte the
     round-trip parse must reject *)
  check_corruption "flipped stencil byte" (fun path ->
      with_payload path (fun p ->
          let start, _ = section p "stencil" in
          let b = Bytes.of_string p in
          Bytes.set b start (Char.chr (Char.code p.[start] lxor 0x20));
          Bytes.to_string b))

let test_header_not_json () =
  check_corruption "header not JSON" (fun path ->
      with_payload path (fun p ->
          let nl = String.index p '\n' in
          "{\"format\": 3, sections" ^ String.sub p nl (String.length p - nl)))

(* What a v2 writer left: the old framing version, and a payload holding
   the modules as escaped JSON strings on one line. *)
let v2_payload p =
  let host_at, host_len = section p "host" in
  let st_at, st_len = section p "stencil" in
  J.to_string
    (J.Obj
       [ ("format", J.Num 2.); ("target", J.Str "serial");
         ("host", J.Str (String.sub p host_at host_len));
         ("stencil", J.Str (String.sub p st_at st_len)); ("gpu_ir", J.Null) ])

(* What a v3 writer left: the same raw modules behind a format-3
   header whose sections still list the Listing-4 [gpu_ir] module (null
   off GPU targets). *)
let v3_payload p =
  let nl = String.index p '\n' in
  let fields =
    match J.of_string (String.sub p 0 nl) with
    | J.Obj l -> l
    | _ -> Alcotest.fail "header is not an object"
  in
  let fields =
    List.map
      (function
        | "format", _ -> ("format", J.Num 3.)
        | "sections", J.Obj l ->
          ("sections", J.Obj (l @ [ ("gpu_ir", J.Null) ]))
        | f -> f)
      fields
  in
  J.to_string (J.Obj fields) ^ String.sub p nl (String.length p - nl)

let test_v2_entry_on_disk () =
  check_corruption "v2 entry" (fun path ->
      with_payload ~version:2 path v2_payload);
  check_corruption "v2 payload in a v4 frame" (fun path ->
      with_payload path v2_payload);
  check_corruption "v3 entry" (fun path ->
      with_payload ~version:3 path v3_payload);
  check_corruption "v3 payload in a v4 frame" (fun path ->
      with_payload path v3_payload)

(* The store (encode + put) runs under its own "cache store" span, in
   category "cache" (perfbench's cache.store_ms subtracts the pipeline
   spans inside a miss), on a miss only; `sfc run --stats` prints its
   minor words after the stage words. *)
let test_store_span () =
  let options = P.default_options () in
  let cache = Cc.create_cache ~disk:false () in
  let stores () =
    List.filter
      (fun e -> e.Obs.e_name = "cache store")
      (Obs.events_with_cat "cache")
  in
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) (fun () ->
      let _, o1 = Cc.compile ~cache options v3_src in
      Alcotest.(check bool) "miss" true (o1 = `Miss);
      (match stores () with
      | [ e ] ->
        Alcotest.(check bool) "records minor words" true
          (List.mem_assoc "minor_words" e.Obs.e_args)
      | l -> Alcotest.failf "%d store spans on a miss" (List.length l));
      Alcotest.(check int) "not a pipeline span" 0
        (span_count "cache store");
      let _, o2 = Cc.compile ~cache options v3_src in
      Alcotest.(check bool) "hit" true (o2 = `Hit);
      Alcotest.(check int) "no store span on a hit" 1
        (List.length (stores ())));
  let dir = tmp_dir () in
  let stage_line () =
    let err = Filename.temp_file "sfc-store-stats" ".err" in
    let code =
      Sys.command
        (Filename.quote_command "../bin/sfc.exe"
           [ "run"; "../examples/laplace.f90"; "--cache-dir"; dir; "--stats" ]
           ~stdout:Filename.null ~stderr:err)
    in
    let lines = String.split_on_char '\n' (read_file err) in
    Sys.remove err;
    Alcotest.(check int) "sfc run exits 0" 0 code;
    List.find
      (fun l -> String.starts_with ~prefix:"stage minor words: " l)
      lines
  in
  let has_store l =
    Str.string_match (Str.regexp ".*; cache store [0-9.]+k$") l 0
  in
  Alcotest.(check bool) "cold run prints the store words" true
    (has_store (stage_line ()));
  Alcotest.(check bool) "warm run prints no store" false
    (has_store (stage_line ()))

(* Minor words of one GS 48^3 openmp(2) cache-miss compile (key, lookup,
   compile, encode and put into a disk cache), counted on this domain.
   The exact count makes an allocation regression visible where timing
   on a shared host cannot. Measured 66,674 words (the JSON-entry path
   before it allocated about 151k: 118k in the compile, 32k in the
   encode). *)
let test_miss_allocation_budget () =
  let src = B.gauss_seidel ~nx:48 ~ny:48 ~nz:48 ~niter:10 () in
  let options = P.default_options ~target:(P.Openmp 2) () in
  Obs.set_enabled false;
  (* one compile first: dialect registration and other one-time set-up
     are not part of a miss *)
  ignore (Cc.compile ~cache:(Cc.create_cache ~dir:(tmp_dir ()) ()) options src);
  let cache = Cc.create_cache ~dir:(tmp_dir ()) () in
  let w0 = Gc.minor_words () in
  let _, outcome = Cc.compile ~cache options src in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "a miss" true (outcome = `Miss);
  if words > 90_000. then
    Alcotest.failf
      "cache-miss compile allocated %.0f minor words (budget 90000)" words

let () =
  Alcotest.run "cache"
    [ ("store",
       [ Alcotest.test_case "digest stability" `Quick test_digest_stability;
         Alcotest.test_case "lru eviction order" `Quick
           test_lru_eviction_order;
         Alcotest.test_case "disk round trip" `Quick test_disk_round_trip;
         Alcotest.test_case "truncated entry evicted" `Quick
           test_truncated_entry_evicted;
         Alcotest.test_case "version mismatch evicted" `Quick
           test_version_mismatch_evicted;
         Alcotest.test_case "failed validation evicts" `Quick
           test_failed_validation_evicts_everywhere ]);
      ("disk budget",
       [ Alcotest.test_case "lru eviction under byte budget" `Quick
           test_disk_budget_lru_eviction;
         Alcotest.test_case "whole-set eviction" `Quick
           test_disk_budget_whole_set_eviction;
         Alcotest.test_case "startup sweep" `Quick test_disk_sweep ]);
      ("sidecars",
       [ Alcotest.test_case "round trip" `Quick test_sidecar_round_trip;
         Alcotest.test_case "reserved extension" `Quick
           test_sidecar_reserved_ext;
         Alcotest.test_case "revalidation drops stale sets" `Quick
           test_revalidate_drops_stale_sidecars;
         Alcotest.test_case "native warm/cold round trip" `Quick
           test_native_warm_cold_round_trip ]);
      ("compile",
       [ Alcotest.test_case "cold/warm round trip, all targets" `Quick
           test_round_trip_all;
         Alcotest.test_case "memory warm hit" `Quick test_memory_warm_hit;
         Alcotest.test_case "thread count not in key" `Quick
           test_thread_count_not_in_key ]);
      ("v3 entries",
       [ Alcotest.test_case "truncated section" `Quick test_truncated_section;
         Alcotest.test_case "section length past the payload" `Quick
           test_section_past_payload;
         Alcotest.test_case "flipped stencil byte" `Quick
           test_flipped_stencil_byte;
         Alcotest.test_case "header line not JSON" `Quick test_header_not_json;
         Alcotest.test_case "v2 entry on disk" `Quick test_v2_entry_on_disk;
         Alcotest.test_case "store span on a miss only" `Quick test_store_span;
         Alcotest.test_case "miss allocation budget" `Quick
           test_miss_allocation_budget ]) ]
