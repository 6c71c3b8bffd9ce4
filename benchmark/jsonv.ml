(* A minimal JSON value type with a strict parser and printer, enough
   to read back the benchmark's own result and series files. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Parse_error (Printf.sprintf "%s at offset %d" what !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
      incr pos;
      ws ()
    | _ -> ()
  in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | '"' | '\\' | '/' -> Buffer.add_char b e
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 4 > n then fail "short \\u escape";
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          Buffer.add_utf_8_uchar b (Uchar.of_int code)
        | _ -> fail "bad escape");
        go ()
      | c when Char.code c < 0x20 -> fail "control character in string"
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    while
      match peek () with '-' | '+' | '.' | 'e' | 'E' | '0' .. '9' -> true | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
      incr pos;
      ws ();
      if peek () = '}' then begin
        incr pos;
        Obj []
      end
      else
        let rec members acc =
          ws ();
          let k = string () in
          ws ();
          expect ':';
          let v = value () in
          ws ();
          match peek () with
          | ',' ->
            incr pos;
            members ((k, v) :: acc)
          | '}' ->
            incr pos;
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
    | '[' ->
      incr pos;
      ws ();
      if peek () = ']' then begin
        incr pos;
        Arr []
      end
      else
        let rec items acc =
          let v = value () in
          ws ();
          match peek () with
          | ',' ->
            incr pos;
            items (v :: acc)
          | ']' ->
            incr pos;
            Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        items []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ -> fail "unexpected character"
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing characters";
  v

let of_file path = parse (In_channel.with_open_bin path In_channel.input_all)

(* Non-finite floats become [null]; finite ones keep every digit. *)
let num_str f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> num_str f
  | Str s -> escape s
  | Arr xs -> "[" ^ String.concat ", " (List.map to_string xs) ^ "]"
  | Obj kvs ->
    "{"
    ^ String.concat ", " (List.map (fun (k, v) -> escape k ^ ": " ^ to_string v) kvs)
    ^ "}"

let member k = function
  | Obj kvs -> ( match List.assoc_opt k kvs with Some v -> v | None -> Null)
  | _ -> Null

let to_num = function Num f -> f | _ -> nan
let to_str = function Str s -> s | _ -> ""
let to_list = function Arr xs -> xs | _ -> []
