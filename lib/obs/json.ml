type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* The printer copies each run of bytes that needs no escape with one
   [add_substring]; only ['"'], ['\\'] and control characters are
   written one at a time. *)
let hex_digit d = "0123456789abcdef".[d]

let escape buf c =
  match c with
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | '\r' -> Buffer.add_string buf "\\r"
  | '\t' -> Buffer.add_string buf "\\t"
  | c ->
    Buffer.add_string buf "\\u00";
    Buffer.add_char buf (hex_digit (Char.code c lsr 4));
    Buffer.add_char buf (hex_digit (Char.code c land 0xF))

let rec run_end_bytes s i =
  if i = String.length s then i
  else
    match String.unsafe_get s i with
    | '"' | '\\' | '\000' .. '\031' -> i
    | _ -> run_end_bytes s (i + 1)

(* The zero-byte test of "Bit Twiddling Hacks", on eight bytes at once:
   [w - 0x01..01] borrows into the top bit of every byte of [w] below 1
   (below 0x20 with [low = 0x20..20]). *)
let highs = 0x8080808080808080L

let[@inline] has_byte_below low w =
  Int64.logand (Int64.logand (Int64.sub w low) (Int64.lognot w)) highs <> 0L

let[@inline] plain_word w =
  not
    (has_byte_below 0x2020202020202020L w
    || has_byte_below 0x0101010101010101L (Int64.logxor w 0x2222222222222222L)
    || has_byte_below 0x0101010101010101L (Int64.logxor w 0x5C5C5C5C5C5C5C5CL))

(* The index of the first byte at or after [i] that needs an escape, or
   the length of [s]; eight bytes at a time while none of them does. *)
let rec run_end s i =
  if i + 8 <= String.length s && plain_word (String.get_int64_le s i) then
    run_end s (i + 8)
  else run_end_bytes s i

let rec add_runs buf s i =
  let j = run_end s i in
  Buffer.add_substring buf s i (j - i);
  if j < String.length s then begin
    escape buf (String.unsafe_get s j);
    add_runs buf s (j + 1)
  end

let add_escaped buf s =
  Buffer.add_char buf '"';
  add_runs buf s 0;
  Buffer.add_char buf '"'

let add_float buf v =
  if Float.is_nan v || v = infinity || v = neg_infinity then
    (* JSON has no NaN/inf; null is the conventional stand-in. *)
    Buffer.add_string buf "null"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.1f" v)
  else begin
    let text = Printf.sprintf "%.17g" v in
    Buffer.add_string buf text;
    (* %.17g renders integral magnitudes in [1e15, 1e17) as bare digits,
       which would re-parse as Int — keep the value a float on the wire. *)
    if String.for_all (fun c -> c <> '.' && c <> 'e' && c <> 'E') text then
      Buffer.add_string buf ".0"
  end

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float v -> add_float buf v
  | String s -> add_escaped buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        to_buffer buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        add_escaped buf k;
        Buffer.add_char buf ':';
        to_buffer buf v)
      fields;
    Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 1024 in
  to_buffer buf t;
  Buffer.contents buf

(* --- parser --- *)

(* The parser walks [s] with one cursor and looks at bytes in place: a
   string without escapes is one [String.sub], a plain integer is summed
   digit by digit, and the end of input is tested by position, never
   through an option. *)

exception Parse_error of int * string

type cursor = { s : string; mutable pos : int }

let error c msg = raise (Parse_error (c.pos, msg))
let at_end c = c.pos >= String.length c.s
let next c = String.unsafe_get c.s c.pos

let rec skip_ws c =
  if not (at_end c) then
    match next c with
    | ' ' | '\t' | '\n' | '\r' ->
      c.pos <- c.pos + 1;
      skip_ws c
    | _ -> ()

let expect c ch =
  if at_end c then error c (Printf.sprintf "expected %C, got end of input" ch)
  else if next c <> ch then
    error c (Printf.sprintf "expected %C, got %C" ch (next c))
  else c.pos <- c.pos + 1

let rec matches c word i =
  i = String.length word
  || (c.s.[c.pos + i] = word.[i] && matches c word (i + 1))

let literal c word value =
  let l = String.length word in
  if c.pos + l <= String.length c.s && matches c word 0 then begin
    c.pos <- c.pos + l;
    value
  end
  else error c (Printf.sprintf "expected %s" word)

let hex_value = function
  | '0' .. '9' as h -> Char.code h - Char.code '0'
  | 'a' .. 'f' as h -> Char.code h - Char.code 'a' + 10
  | 'A' .. 'F' as h -> Char.code h - Char.code 'A' + 10
  | _ -> -1

(* The four hex digits after a [\u], as a UTF-16 code unit. *)
let rec hex4 c i acc =
  if i = 4 then acc
  else
    let d = hex_value c.s.[c.pos + i] in
    if d < 0 then error c "bad \\u escape" else hex4 c (i + 1) ((acc lsl 4) lor d)

let code_unit c =
  if c.pos + 4 > String.length c.s then error c "truncated \\u escape";
  let u = hex4 c 0 0 in
  c.pos <- c.pos + 4;
  u

let add_utf8 buf code =
  let byte b = Buffer.add_char buf (Char.unsafe_chr b) in
  if code < 0x80 then byte code
  else if code < 0x800 then begin
    byte (0xC0 lor (code lsr 6));
    byte (0x80 lor (code land 0x3F))
  end
  else if code < 0x10000 then begin
    byte (0xE0 lor (code lsr 12));
    byte (0x80 lor ((code lsr 6) land 0x3F));
    byte (0x80 lor (code land 0x3F))
  end
  else begin
    byte (0xF0 lor (code lsr 18));
    byte (0x80 lor ((code lsr 12) land 0x3F));
    byte (0x80 lor ((code lsr 6) land 0x3F));
    byte (0x80 lor (code land 0x3F))
  end

(* A [\u] escape, the [\u] already consumed: a UTF-16 surrogate pair
   becomes one 4-byte code point; a surrogate without its partner is an
   error, since it has no UTF-8 form. *)
let add_unicode_escape c buf =
  let unpaired () = error c "unpaired surrogate in \\u escape" in
  let u = code_unit c in
  if u land 0xFC00 = 0xD800 then begin
    if
      c.pos + 2 > String.length c.s
      || c.s.[c.pos] <> '\\'
      || c.s.[c.pos + 1] <> 'u'
    then unpaired ();
    c.pos <- c.pos + 2;
    let low = code_unit c in
    if low land 0xFC00 <> 0xDC00 then unpaired ();
    add_utf8 buf (0x10000 + ((u - 0xD800) lsl 10) + (low - 0xDC00))
  end
  else if u land 0xFC00 = 0xDC00 then unpaired ()
  else add_utf8 buf u

(* The index of the first ['"'] or ['\\'] at or after [i], or the
   length of [s]: raw control bytes are taken as they are. *)
let rec quote_or_backslash s i =
  let j = run_end s i in
  if j < String.length s && String.unsafe_get s j < ' ' then
    quote_or_backslash s (j + 1)
  else j

(* The rest of a string from its first escape on, [run] the start of
   the bytes not yet copied. *)
let rec escaped_string c buf run =
  c.pos <- quote_or_backslash c.s c.pos;
  if at_end c then error c "unterminated string";
  Buffer.add_substring buf c.s run (c.pos - run);
  if next c = '"' then begin
    c.pos <- c.pos + 1;
    Buffer.contents buf
  end
  else begin
    c.pos <- c.pos + 1;
    if at_end c then error c "unterminated escape";
    let e = next c in
    c.pos <- c.pos + 1;
    (match e with
    | '"' -> Buffer.add_char buf '"'
    | '\\' -> Buffer.add_char buf '\\'
    | '/' -> Buffer.add_char buf '/'
    | 'b' -> Buffer.add_char buf '\b'
    | 'f' -> Buffer.add_char buf '\012'
    | 'n' -> Buffer.add_char buf '\n'
    | 'r' -> Buffer.add_char buf '\r'
    | 't' -> Buffer.add_char buf '\t'
    | 'u' -> add_unicode_escape c buf
    | e -> error c (Printf.sprintf "bad escape \\%C" e));
    escaped_string c buf c.pos
  end

let parse_string c =
  expect c '"';
  let start = c.pos in
  c.pos <- quote_or_backslash c.s start;
  if at_end c then error c "unterminated string";
  if next c = '"' then begin
    c.pos <- c.pos + 1;
    String.sub c.s start (c.pos - 1 - start)
  end
  else escaped_string c (Buffer.create (c.pos - start + 16)) start

let rec skip_digits c =
  if (not (at_end c)) && next c >= '0' && next c <= '9' then begin
    c.pos <- c.pos + 1;
    skip_digits c
  end

(* At least one digit, then as many as follow. *)
let digits c what =
  if at_end c || next c < '0' || next c > '9' then
    error c (Printf.sprintf "expected a digit in %s" what);
  skip_digits c

let rec decimal s i stop acc =
  if i = stop then acc
  else decimal s (i + 1) stop ((acc * 10) + Char.code s.[i] - Char.code '0')

(* RFC 8259: [-]?(0|[1-9][0-9]* )(.[0-9]+)?([eE][+-]?[0-9]+)?.  An
   integer of up to 18 digits is summed in place; a longer one is [Int]
   when it fits, [Float] when it does not, and a fraction or exponent
   makes a [Float] — what [float_of_string] reads from the same text. *)
let parse_number c =
  let start = c.pos in
  if next c = '-' then c.pos <- c.pos + 1;
  let int_start = c.pos in
  if at_end c then error c "expected a digit after '-'";
  (match next c with
  | '0' ->
    c.pos <- c.pos + 1;
    if (not (at_end c)) && next c >= '0' && next c <= '9' then
      error c "leading zero in number"
  | '1' .. '9' -> skip_digits c
  | _ -> error c "expected a digit after '-'");
  let int_end = c.pos in
  let fraction = (not (at_end c)) && next c = '.' in
  if fraction then begin
    c.pos <- c.pos + 1;
    digits c "fraction"
  end;
  let exponent = (not (at_end c)) && (next c = 'e' || next c = 'E') in
  if exponent then begin
    c.pos <- c.pos + 1;
    if (not (at_end c)) && (next c = '+' || next c = '-') then
      c.pos <- c.pos + 1;
    digits c "exponent"
  end;
  if fraction || exponent then
    Float (float_of_string (String.sub c.s start (c.pos - start)))
  else if int_end - int_start <= 18 then
    let v = decimal c.s int_start int_end 0 in
    Int (if int_start > start then -v else v)
  else
    let text = String.sub c.s start (c.pos - start) in
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> Float (float_of_string text)

let rec parse_value c =
  skip_ws c;
  if at_end c then error c "unexpected end of input";
  match next c with
  | '"' -> String (parse_string c)
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | '[' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if (not (at_end c)) && next c = ']' then begin
      c.pos <- c.pos + 1;
      List []
    end
    else List (items c [ parse_value c ])
  | '{' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if (not (at_end c)) && next c = '}' then begin
      c.pos <- c.pos + 1;
      Obj []
    end
    else Obj (fields c [ field c ])
  | '-' | '0' .. '9' -> parse_number c
  | ch -> error c (Printf.sprintf "unexpected %C" ch)

and items c acc =
  skip_ws c;
  if (not (at_end c)) && next c = ',' then begin
    c.pos <- c.pos + 1;
    items c (parse_value c :: acc)
  end
  else begin
    expect c ']';
    List.rev acc
  end

and field c =
  skip_ws c;
  let key = parse_string c in
  skip_ws c;
  expect c ':';
  (key, parse_value c)

and fields c acc =
  skip_ws c;
  if (not (at_end c)) && next c = ',' then begin
    c.pos <- c.pos + 1;
    fields c (field c :: acc)
  end
  else begin
    expect c '}';
    List.rev acc
  end

let of_string s =
  let c = { s; pos = 0 } in
  match
    let v = parse_value c in
    skip_ws c;
    if not (at_end c) then error c "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) ->
    Error (Printf.sprintf "at byte %d: %s" at msg)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list_opt = function List items -> Some items | _ -> None
let string_opt = function String s -> Some s | _ -> None

let number_opt = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let int_opt = function
  | Int i -> Some i
  | Float f when Float.is_integer f && Float.abs f <= 1e15 ->
    Some (int_of_float f)
  | _ -> None

let bool_opt = function Bool b -> Some b | _ -> None

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool a, Bool b -> a = b
  | Int a, Int b -> a = b
  | Float a, Float b ->
    (* Bit-compare rather than [=]: NaN equals itself, and 0. vs -0.
       (distinct documents) stay distinct. *)
    Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  | String a, String b -> String.equal a b
  | List a, List b -> List.equal equal a b
  | Obj a, Obj b ->
    List.equal (fun (ka, va) (kb, vb) -> String.equal ka kb && equal va vb) a b
  | (Null | Bool _ | Int _ | Float _ | String _ | List _ | Obj _), _ -> false
