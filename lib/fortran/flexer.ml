(* Free-form Fortran lexer. Fortran is case-insensitive and line-oriented:
   statements end at newline unless continued with '&'; '!' starts a
   comment; ';' separates statements on one line. The lexer lowercases
   everything and emits NEWLINE tokens at statement boundaries. *)

type token =
  | IDENT of string
  | INT of int
  | REAL of float * int (* value, kind *)
  | STRING of string
  | LPAREN
  | RPAREN
  | COMMA
  | COLON
  | DCOLON
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | POW (* ** *)
  | ASSIGN (* = *)
  | EQ (* == or .eq. *)
  | NE
  | LT_
  | LE_
  | GT_
  | GE_
  | AND
  | OR
  | NOT
  | TRUE
  | FALSE
  | PERCENT
  | NEWLINE
  | EOF

type located = { tok : token; tline : int; tcol : int }

exception Lex_error of string * int * int (* message, line, col *)

let token_to_string = function
  | IDENT s -> "identifier " ^ s
  | INT n -> "integer " ^ string_of_int n
  | REAL (f, k) -> Printf.sprintf "real %g (kind %d)" f k
  | STRING s -> Printf.sprintf "string %S" s
  | LPAREN -> "("
  | RPAREN -> ")"
  | COMMA -> ","
  | COLON -> ":"
  | DCOLON -> "::"
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | POW -> "**"
  | ASSIGN -> "="
  | EQ -> "=="
  | NE -> "/="
  | LT_ -> "<"
  | LE_ -> "<="
  | GT_ -> ">"
  | GE_ -> ">="
  | AND -> ".and."
  | OR -> ".or."
  | NOT -> ".not."
  | TRUE -> ".true."
  | FALSE -> ".false."
  | PERCENT -> "%"
  | NEWLINE -> "end of line"
  | EOF -> "end of file"

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
}

let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_digit c = c >= '0' && c <= '9'
let is_alnum c = is_alpha c || is_digit c

(* [src.[start .. start + len)] lowercased, copied once. *)
let lower_sub src start len =
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.unsafe_set b i (Char.lowercase_ascii src.[start + i])
  done;
  Bytes.unsafe_to_string b

let lower = String.lowercase_ascii

let tokenize src =
  let st = { src; pos = 0; line = 1; col = 1 } in
  let n = String.length src in
  let out = ref [] in
  let emit tok = out := { tok; tline = st.line; tcol = st.col } :: !out in
  let peek () = if st.pos < n then src.[st.pos] else '\000' in
  let peek2 () = if st.pos + 1 < n then src.[st.pos + 1] else '\000' in
  let advance () =
    if st.pos < n then begin
      if src.[st.pos] = '\n' then begin
        st.line <- st.line + 1;
        st.col <- 1
      end
      else st.col <- st.col + 1;
      st.pos <- st.pos + 1
    end
  in
  let error msg = raise (Lex_error (msg, st.line, st.col)) in
  let skip_to_eol () =
    while st.pos < n && peek () <> '\n' do
      advance ()
    done
  in
  (* Collapse blank lines: only emit NEWLINE after a significant token. *)
  let last_was_newline () =
    match !out with
    | [] -> true
    | { tok = NEWLINE; _ } :: _ -> true
    | _ -> false
  in
  let continuation = ref false in
  while st.pos < n do
    let c = peek () in
    if c = ' ' || c = '\t' || c = '\r' then advance ()
    else if c = '!' then skip_to_eol ()
    else if c = '\n' then begin
      if !continuation then continuation := false
      else if not (last_was_newline ()) then emit NEWLINE;
      advance ()
    end
    else if c = '&' then begin
      continuation := true;
      advance ()
    end
    else if c = ';' then begin
      if not (last_was_newline ()) then emit NEWLINE;
      advance ()
    end
    else if is_digit c || (c = '.' && is_digit (peek2 ())) then begin
      let start = st.pos in
      while is_digit (peek ()) do
        advance ()
      done;
      let is_real = ref false in
      (* Careful: "1." followed by "and." must not eat the dot of .and. —
         a dot is part of the number only if not starting a dot-operator. *)
      if
        peek () = '.'
        && not
             (is_alpha (peek2 ())
             && (let save = st.pos in
                 (* lookahead: .ident. pattern *)
                 let p = ref (save + 1) in
                 while !p < n && is_alpha src.[!p] do
                   incr p
                 done;
                 let isop = !p < n && src.[!p] = '.' in
                 isop))
      then begin
        is_real := true;
        advance ();
        while is_digit (peek ()) do
          advance ()
        done
      end;
      (* exponent: e/d followed by optional sign and digits *)
      (match peek () with
      | 'e' | 'E' | 'd' | 'D'
        when is_digit (peek2 ())
             || ((peek2 () = '+' || peek2 () = '-')
                && st.pos + 2 < n
                && is_digit src.[st.pos + 2]) ->
        is_real := true;
        advance ();
        if peek () = '+' || peek () = '-' then advance ();
        while is_digit (peek ()) do
          advance ()
        done
      | _ -> ());
      let lexeme = String.sub src start (st.pos - start) in
      (* kind suffix: 1.0_8 *)
      let kind = ref 4 in
      if String.contains (lower lexeme) 'd' then kind := 8;
      if peek () = '_' && is_digit (peek2 ()) then begin
        advance ();
        let kstart = st.pos in
        while is_digit (peek ()) do
          advance ()
        done;
        kind := int_of_string (String.sub src kstart (st.pos - kstart))
      end;
      if !is_real then begin
        let norm =
          String.map
            (fun c -> match c with 'd' | 'D' -> 'e' | c -> c)
            lexeme
        in
        emit (REAL (float_of_string norm, !kind))
      end
      else emit (INT (int_of_string lexeme))
    end
    else if is_alpha c then begin
      let start = st.pos in
      while is_alnum (peek ()) do
        advance ()
      done;
      emit (IDENT (lower_sub src start (st.pos - start)))
    end
    else if c = '.' && is_alpha (peek2 ()) then begin
      (* dot operator: .and. .or. .not. .true. .false. .eq. ... *)
      advance ();
      let start = st.pos in
      while is_alpha (peek ()) do
        advance ()
      done;
      let name = lower_sub src start (st.pos - start) in
      if peek () <> '.' then
        error ("." ^ name ^ " not terminated by '.'");
      advance ();
      (match name with
      | "and" -> emit AND
      | "or" -> emit OR
      | "not" -> emit NOT
      | "true" -> emit TRUE
      | "false" -> emit FALSE
      | "eq" -> emit EQ
      | "ne" -> emit NE
      | "lt" -> emit LT_
      | "le" -> emit LE_
      | "gt" -> emit GT_
      | "ge" -> emit GE_
      | _ -> error ("unknown operator ." ^ name ^ "."))
    end
    else if c = '"' || c = '\'' then begin
      let quote = c in
      advance ();
      let b = Buffer.create 16 in
      while st.pos < n && peek () <> quote do
        Buffer.add_char b (peek ());
        advance ()
      done;
      if st.pos >= n then error "unterminated string literal";
      advance ();
      emit (STRING (Buffer.contents b))
    end
    else begin
      (match c with
      | '(' -> emit LPAREN
      | ')' -> emit RPAREN
      | ',' -> emit COMMA
      | ':' ->
        if peek2 () = ':' then begin
          advance ();
          emit DCOLON
        end
        else emit COLON
      | '+' -> emit PLUS
      | '-' -> emit MINUS
      | '*' ->
        if peek2 () = '*' then begin
          advance ();
          emit POW
        end
        else emit STAR
      | '/' ->
        if peek2 () = '=' then begin
          advance ();
          emit NE
        end
        else emit SLASH
      | '=' ->
        if peek2 () = '=' then begin
          advance ();
          emit EQ
        end
        else emit ASSIGN
      | '<' ->
        if peek2 () = '=' then begin
          advance ();
          emit LE_
        end
        else emit LT_
      | '>' ->
        if peek2 () = '=' then begin
          advance ();
          emit GE_
        end
        else emit GT_
      | '%' -> emit PERCENT
      | c -> error (Printf.sprintf "unexpected character %C" c));
      advance ()
    end
  done;
  if not (last_was_newline ()) then emit NEWLINE;
  emit EOF;
  List.rev !out
