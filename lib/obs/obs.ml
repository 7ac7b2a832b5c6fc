(* Observability substrate: spans, monotonic counters, and Chrome
   trace-event export.

   This is the instrumentation layer the evaluation pipeline records
   into — the mini equivalent of mlir-opt's -mlir-timing plus
   pass-statistics machinery, with the output format of chrome://tracing
   so traces can be inspected in Perfetto.

   Design constraints:
   - recording must be safe from any domain (the pool workers record
     chunk counters concurrently with the caller);
   - when disabled (the default) every probe must be near-free, so the
     interpreter hot loop can stay instrumented unconditionally;
   - span recording must survive exceptions: a failing pass still leaves
     its span in the trace, tagged with the error. *)

(* ------------------------------------------------------------------ *)
(* Minimal JSON values                                                  *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let escape_to buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  let number_to_string f =
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else Printf.sprintf "%.6g" f

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> Buffer.add_string buf (number_to_string f)
    | Str s ->
      Buffer.add_char buf '"';
      escape_to buf s;
      Buffer.add_char buf '"'
    | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
    | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape_to buf k;
          Buffer.add_string buf "\":";
          write buf v)
        kvs;
      Buffer.add_char buf '}'

  let to_string j =
    let buf = Buffer.create 4096 in
    write buf j;
    Buffer.contents buf

  exception Parse_error of string

  (* Recursive-descent parser, enough to round-trip our own output (and
     any reasonable trace-sized JSON). *)
  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail ("bad literal, expected " ^ word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        advance ();
        if c = '"' then Buffer.contents buf
        else if c = '\\' then begin
          (if !pos >= n then fail "unterminated escape";
           let e = s.[!pos] in
           advance ();
           match e with
           | '"' -> Buffer.add_char buf '"'
           | '\\' -> Buffer.add_char buf '\\'
           | '/' -> Buffer.add_char buf '/'
           | 'b' -> Buffer.add_char buf '\b'
           | 'f' -> Buffer.add_char buf '\012'
           | 'n' -> Buffer.add_char buf '\n'
           | 'r' -> Buffer.add_char buf '\r'
           | 't' -> Buffer.add_char buf '\t'
           | 'u' ->
             if !pos + 4 > n then fail "truncated \\u escape";
             let code = int_of_string ("0x" ^ String.sub s !pos 4) in
             pos := !pos + 4;
             if code < 0x80 then Buffer.add_char buf (Char.chr code)
             else Buffer.add_char buf '?'
           | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          go ()
        end
        else begin
          Buffer.add_char buf c;
          go ()
        end
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let is_num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while
        match peek () with Some c -> is_num_char c | None -> false
      do
        advance ()
      done;
      if !pos = start then fail "expected number";
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "malformed number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> Str (parse_string ())
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              members ((k, v) :: acc)
            | Some '}' ->
              advance ();
              List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              elems (v :: acc)
            | Some ']' ->
              advance ();
              List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (elems [])
        end
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (parse_number ())
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing content";
    v

  let member key = function
    | Obj kvs -> List.assoc_opt key kvs
    | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Recording state                                                      *)
(* ------------------------------------------------------------------ *)

type arg =
  | A_int of int
  | A_float of float
  | A_str of string

type event = {
  e_name : string;
  e_cat : string;
  e_tid : int; (* domain id that recorded the span *)
  e_start : float; (* seconds since the trace epoch *)
  e_dur : float; (* seconds *)
  e_args : (string * arg) list;
}

let enabled_flag = Atomic.make false
let lock = Mutex.create ()
let recorded : event list ref = ref [] (* newest first *)
let epoch = ref (Unix.gettimeofday ())

(* Counters are interned by name so a handle stays valid across
   [reset]: reset zeroes the cells rather than dropping them. *)
type counter = int Atomic.t

let counters_tbl : (string, int Atomic.t) Hashtbl.t = Hashtbl.create 64
let now () = Unix.gettimeofday ()
let enabled () = Atomic.get enabled_flag
let set_enabled on = Atomic.set enabled_flag on

(* Counters-only recording: a long-running server wants its counters
   live for metrics dumps, but full recording would accumulate span
   events without bound. This flag enables counter accumulation without
   touching span recording ([enabled] stays authoritative for spans). *)
let counters_only_flag = Atomic.make false
let set_counters_only on = Atomic.set counters_only_flag on
let counters_enabled () = enabled () || Atomic.get counters_only_flag

let reset () =
  Mutex.lock lock;
  recorded := [];
  Hashtbl.iter (fun _ cell -> Atomic.set cell 0) counters_tbl;
  epoch := now ();
  Mutex.unlock lock

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)
(* ------------------------------------------------------------------ *)

type span = {
  sp_name : string;
  sp_cat : string;
  sp_tid : int;
  sp_t0 : float;
  sp_live : bool; (* was recording enabled when the span began? *)
}

let span_begin ?(cat = "") name =
  if enabled () then
    { sp_name = name; sp_cat = cat; sp_tid = (Domain.self () :> int);
      sp_t0 = now (); sp_live = true }
  else { sp_name = name; sp_cat = cat; sp_tid = 0; sp_t0 = 0.; sp_live = false }

let span_end ?(args = []) sp =
  if sp.sp_live then begin
    let t1 = now () in
    let e =
      { e_name = sp.sp_name; e_cat = sp.sp_cat; e_tid = sp.sp_tid;
        e_start = sp.sp_t0 -. !epoch; e_dur = t1 -. sp.sp_t0;
        e_args = args }
    in
    Mutex.lock lock;
    recorded := e :: !recorded;
    Mutex.unlock lock
  end

(* Run [f] under a span. The span is recorded even when [f] raises —
   tagged with the exception — and the exception propagates with its
   original backtrace. With [~alloc:true] a recorded span also carries
   a [minor_words] argument: the words [f] allocated on the minor heap
   of the calling domain. *)
let with_span ?cat ?(args = []) ?(alloc = false) name f =
  let sp = span_begin ?cat name in
  let alloc = alloc && sp.sp_live in
  let w0 = if alloc then Gc.minor_words () else 0. in
  let args extra =
    let args = extra @ args in
    if alloc then
      ("minor_words", A_int (int_of_float (Gc.minor_words () -. w0))) :: args
    else args
  in
  match f () with
  | v ->
    span_end ~args:(args []) sp;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    span_end ~args:(args [ ("error", A_str (Printexc.to_string e)) ]) sp;
    Printexc.raise_with_backtrace e bt

(* ------------------------------------------------------------------ *)
(* Counters                                                             *)
(* ------------------------------------------------------------------ *)

let counter name =
  Mutex.lock lock;
  let cell =
    match Hashtbl.find_opt counters_tbl name with
    | Some c -> c
    | None ->
      let c = Atomic.make 0 in
      Hashtbl.add counters_tbl name c;
      c
  in
  Mutex.unlock lock;
  cell

let add c n = if counters_enabled () then ignore (Atomic.fetch_and_add c n)
let incr c = add c 1
let counter_value c = Atomic.get c

(* All counters that have accumulated anything, sorted by name. *)
let counter_totals () =
  Mutex.lock lock;
  let totals =
    Hashtbl.fold
      (fun name cell acc ->
        let v = Atomic.get cell in
        if v <> 0 then (name, v) :: acc else acc)
      counters_tbl []
  in
  Mutex.unlock lock;
  List.sort (fun (a, _) (b, _) -> compare a b) totals

(* ------------------------------------------------------------------ *)
(* Inspection and export                                                *)
(* ------------------------------------------------------------------ *)

(* Recorded events in completion order (a nested span completes before
   its parent, so children precede parents). *)
let events () =
  Mutex.lock lock;
  let evs = List.rev !recorded in
  Mutex.unlock lock;
  evs

let events_with_cat cat = List.filter (fun e -> e.e_cat = cat) (events ())

(* Aggregate spans by name, in order of first completion:
   (name, count, total seconds). *)
let span_summary ?cat () =
  let evs = match cat with None -> events () | Some c -> events_with_cat c in
  let order = ref [] in
  let tbl : (string, int * float) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun e ->
      match Hashtbl.find_opt tbl e.e_name with
      | Some (n, t) -> Hashtbl.replace tbl e.e_name (n + 1, t +. e.e_dur)
      | None ->
        order := e.e_name :: !order;
        Hashtbl.add tbl e.e_name (1, e.e_dur))
    evs;
  List.rev_map
    (fun name ->
      let n, t = Hashtbl.find tbl name in
      (name, n, t))
    !order

let json_of_arg = function
  | A_int n -> Json.Num (float_of_int n)
  | A_float f -> Json.Num f
  | A_str s -> Json.Str s

(* Chrome trace-event format (the JSON object flavour): spans become
   "X" complete events, counters one final "C" event each. Load the
   file in chrome://tracing or https://ui.perfetto.dev. *)
let trace_json () =
  let evs = events () in
  let span_event e =
    Json.Obj
      [ ("name", Json.Str e.e_name);
        ("cat", Json.Str (if e.e_cat = "" then "default" else e.e_cat));
        ("ph", Json.Str "X");
        ("pid", Json.Num 1.);
        ("tid", Json.Num (float_of_int e.e_tid));
        ("ts", Json.Num (1e6 *. e.e_start));
        ("dur", Json.Num (1e6 *. e.e_dur));
        ("args",
         Json.Obj (List.map (fun (k, v) -> (k, json_of_arg v)) e.e_args)) ]
  in
  let t_end =
    List.fold_left (fun acc e -> Float.max acc (e.e_start +. e.e_dur)) 0. evs
  in
  let counter_event (name, v) =
    Json.Obj
      [ ("name", Json.Str name);
        ("cat", Json.Str "counter");
        ("ph", Json.Str "C");
        ("pid", Json.Num 1.);
        ("tid", Json.Num 0.);
        ("ts", Json.Num (1e6 *. t_end));
        ("args", Json.Obj [ ("value", Json.Num (float_of_int v)) ]) ]
  in
  Json.Obj
    [ ("traceEvents",
       Json.List
         (List.map span_event evs
         @ List.map counter_event (counter_totals ())));
      ("displayTimeUnit", Json.Str "ms") ]

let write_trace path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (trace_json ()));
      output_char oc '\n')

(* Human-readable summary of everything recorded, for --stats output. *)
let report () =
  let buf = Buffer.create 1024 in
  let spans = span_summary () in
  if spans <> [] then begin
    Buffer.add_string buf "spans (count, total):\n";
    List.iter
      (fun (name, n, t) ->
        Buffer.add_string buf
          (Printf.sprintf "  %-45s %6d %10.3f ms\n" name n (1000. *. t)))
      spans
  end;
  let totals = counter_totals () in
  if totals <> [] then begin
    Buffer.add_string buf "counters:\n";
    List.iter
      (fun (name, v) ->
        Buffer.add_string buf (Printf.sprintf "  %-45s %12d\n" name v))
      totals
  end;
  Buffer.contents buf
