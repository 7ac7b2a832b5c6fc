(* Shelling out to the OCaml native toolchain.

   Probes once per findlib driver: [<ocamlfind> ocamlopt -only-show
   -version] names the real compiler (here [ocamlopt.opt]), which every
   build then runs directly, and one [ocamlopt -config] read gives its
   version and link setup. On Linux the plugin is linked by
   [ld -shared] (the [ld] of [native_pack_linker]) instead of the gcc
   driver ocamlopt would otherwise use; elsewhere ocamlopt's default
   link stays. The probe also checks native Dynlink support and locates
   the shim's compiled interface inside the build tree (a Dynlink'd
   plugin must be compiled against the exact cmi the host was linked
   with). All failures are values, never exceptions: a machine without
   the toolchain degrades to the vector engine, it does not crash. *)

type toolchain = {
  tc_driver : string;       (* the findlib driver that resolved it *)
  tc_command : string list; (* the resolved compiler, argv prefix *)
  tc_version : string;      (* the compiler's [version] config entry *)
  tc_link : string option;  (* [ld -shared] when it replaces the default *)
  tc_flags : string list;   (* flags passed to every compile *)
  tc_shim_dirs : string list; (* -I dirs holding the shim cmi/cmx *)
  tc_shim_digest : string;  (* digest of the shim cmi *)
}

(* Run [argv] with stdout+stderr captured through a pipe; returns
   (exit code, combined output). Exec failures map to code 127. The
   pipe is close-on-exec so builds spawned concurrently from other
   threads never inherit (and hold open) its write end. *)
let run_command argv =
  match Unix.pipe ~cloexec:true () with
  | exception Unix.Unix_error (e, _, _) -> (127, Unix.error_message e)
  | rd, wr -> (
    let spawned =
      try Ok (Unix.create_process argv.(0) argv Unix.stdin wr wr)
      with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
    in
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    match spawned with
    | Error e ->
      close_in_noerr ic;
      (127, e)
    | Ok pid ->
      let text = try In_channel.input_all ic with Sys_error _ -> "" in
      close_in_noerr ic;
      let rec wait () =
        try snd (Unix.waitpid [] pid)
        with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      in
      ( (match wait () with
        | Unix.WEXITED n -> n
        | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 255),
        text ))

let first_line s =
  match String.index_opt s '\n' with
  | Some i -> String.sub s 0 i
  | None -> s

(* ocamlopt's first line is usually just a location; its "Error:" line
   says what went wrong. *)
let error_line out =
  let out = String.trim out in
  match
    List.find_opt
      (String.starts_with ~prefix:"Error")
      (String.split_on_char '\n' out)
  with
  | Some l -> l
  | None -> first_line out

let words s = String.split_on_char ' ' s |> List.filter (( <> ) "")

(* The shim's artifacts live in the dune build tree next to the host
   executable: walk up from the executable until a _build/default
   appears, then descend to the shim library's .objs. Tests and
   embedders can override with SFC_NATIVE_SHIM_DIR (the directory
   holding sfc_native_shim.cmi). *)
let find_shim_dirs () =
  let candidates root =
    let objs =
      List.fold_left Filename.concat root
        [ "lib"; "codegen"; "shim"; ".sfc_native_shim.objs" ]
    in
    [ Filename.concat objs "byte"; Filename.concat objs "native" ]
  in
  let dirs =
    match Sys.getenv_opt "SFC_NATIVE_SHIM_DIR" with
    | Some d when d <> "" ->
      (* also pick up a sibling native dir when the override points at
         the byte one *)
      [ d; Filename.concat (Filename.dirname d) "native" ]
    | _ ->
      let rec walk dir =
        let cand = Filename.concat (Filename.concat dir "_build") "default" in
        if Sys.file_exists cand then candidates cand
        else
          let parent = Filename.dirname dir in
          if parent = dir then [] else walk parent
      in
      walk (Filename.dirname Sys.executable_name)
  in
  let dirs = List.filter Sys.file_exists dirs in
  let cmi d = Filename.concat d "sfc_native_shim.cmi" in
  match List.find_opt (fun d -> Sys.file_exists (cmi d)) dirs with
  | Some d -> Ok (dirs, Digest.to_hex (Digest.file (cmi d)))
  | None -> Error "shim interface (sfc_native_shim.cmi) not found"

let failure what code out =
  Error
    (Printf.sprintf "%s (exit %d%s)" what code
       (match String.trim (first_line out) with "" -> "" | l -> ": " ^ l))

(* [ocamlfind ocamlopt -only-show -version] prints the command it would
   run, [<compiler...> -version]; everything before the flag is the
   compiler. *)
let resolve_compiler driver =
  match run_command [| driver; "ocamlopt"; "-only-show"; "-version" |] with
  | 0, out -> (
    match List.rev (words (String.trim (first_line out))) with
    | "-version" :: (_ :: _ as rev_cmd) -> Ok (List.rev rev_cmd)
    | _ -> Error (driver ^ " ocamlopt -only-show printed no compiler"))
  | code, out -> failure (driver ^ " ocamlopt unavailable") code out

let config_entry config key =
  let prefix = key ^ ":" in
  List.find_map
    (fun line ->
      if String.starts_with ~prefix line then
        Some
          (String.trim
             (String.sub line (String.length prefix)
                (String.length line - String.length prefix)))
      else None)
    (String.split_on_char '\n' config)

(* On Linux (ELF) a plugin links with [ld -shared] alone: the gcc
   driver ocamlopt uses by default adds nothing an OCaml-only plugin
   needs and costs several times the link itself. *)
let link_command config =
  match (config_entry config "system", config_entry config "native_pack_linker")
  with
  | Some "linux", Some packer -> (
    match words packer with ld :: _ -> Some (ld ^ " -shared") | [] -> None)
  | _ -> None

let resolve_toolchain driver =
  if not Dynlink.is_native then Error "native Dynlink unavailable"
  else
    match resolve_compiler driver with
    | Error e -> Error e
    | Ok compiler -> (
      let name = String.concat " " compiler in
      match run_command (Array.of_list (compiler @ [ "-config" ])) with
      | 0, config -> (
        match config_entry config "version" with
        | None | Some "" -> Error (name ^ " -config reported no version")
        | Some version -> (
          let link = link_command config in
          match find_shim_dirs () with
          | Ok (dirs, digest) ->
            Ok
              { tc_driver = driver; tc_command = compiler;
                tc_version = version; tc_link = link;
                tc_flags =
                  ([ "-shared"; "-w"; "-a" ]
                  @ match link with Some l -> [ "-cc"; l ] | None -> []);
                tc_shim_dirs = dirs; tc_shim_digest = digest }
          | Error e -> Error e))
      | code, out -> failure (name ^ " -config failed") code out)

let probe_command driver =
  try resolve_toolchain driver with
  | Sys_error e -> Error ("toolchain probe failed: " ^ e)
  | Unix.Unix_error (e, fn, _) ->
    Error (Printf.sprintf "toolchain probe failed: %s: %s" fn
             (Unix.error_message e))

let default_command () =
  match Sys.getenv_opt "SFC_NATIVE_OCAMLFIND" with
  | Some c when c <> "" -> c
  | _ -> "ocamlfind"

(* One probe per driver string: the default path is hit by every ctx,
   and a probe costs two subprocesses. *)
let probe_mutex = Mutex.create ()
let probes : (string, (toolchain, string) result) Hashtbl.t = Hashtbl.create 4

let probe ?command () =
  let command =
    match command with Some c -> c | None -> default_command ()
  in
  Mutex.lock probe_mutex;
  let cached = Hashtbl.find_opt probes command in
  Mutex.unlock probe_mutex;
  match cached with
  | Some r -> r
  | None ->
    let r = probe_command command in
    Mutex.lock probe_mutex;
    Hashtbl.replace probes command r;
    Mutex.unlock probe_mutex;
    r

(* A stable description of everything that affects generated machine
   code — part of the cache key and the sidecar stamp. The flags name
   the link command, so a change of linker re-keys every artifact. *)
let stamp tc =
  Printf.sprintf "ocamlopt %s shim %s flags %s" tc.tc_version
    tc.tc_shim_digest
    (String.concat " " tc.tc_flags)

(* One line for --stats: what every build runs. *)
let describe tc =
  Printf.sprintf "%s %s (resolved by %s), link %s"
    (String.concat " " tc.tc_command)
    tc.tc_version tc.tc_driver
    (match tc.tc_link with Some l -> l | None -> "ocamlopt default")

(* Compile [ml] (an absolute path) to the plugin [out]. ocamlopt drops
   its .cmi/.cmx/.o next to the source, so callers pass a source inside
   a private work directory. *)
let compile tc ~ml ~out =
  let argv =
    Array.of_list
      (tc.tc_command @ tc.tc_flags
      @ List.concat_map (fun d -> [ "-I"; d ]) tc.tc_shim_dirs
      @ [ "-o"; out; ml ])
  in
  match run_command argv with
  | 0, _ when Sys.file_exists out -> Ok ()
  | 0, out_text ->
    Error ("compiler produced no output: " ^ first_line out_text)
  | code, out_text ->
    Error
      (Printf.sprintf "ocamlopt failed (exit %d): %s" code
         (error_line out_text))
  | exception Sys_error e -> Error ("compiler could not run: " ^ e)
  | exception Unix.Unix_error (e, fn, _) ->
    Error
      (Printf.sprintf "compiler could not run: %s: %s" fn
         (Unix.error_message e))
