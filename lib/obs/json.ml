type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- printing --- *)

let escape buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  (* [start] is the first byte of the run not yet copied *)
  let rec go start i =
    if i = n then Buffer.add_substring buf s start (i - start)
    else
      match s.[i] with
      | ('"' | '\\' | '\000' .. '\031') as c ->
          Buffer.add_substring buf s start (i - start);
          (match c with
          | '"' -> Buffer.add_string buf "\\\""
          | '\\' -> Buffer.add_string buf "\\\\"
          | '\n' -> Buffer.add_string buf "\\n"
          | '\r' -> Buffer.add_string buf "\\r"
          | '\t' -> Buffer.add_string buf "\\t"
          | '\b' -> Buffer.add_string buf "\\b"
          | '\012' -> Buffer.add_string buf "\\f"
          | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c)));
          go (i + 1) (i + 1)
      | _ -> go start (i + 1)
  in
  go 0 0;
  Buffer.add_char buf '"'

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else
    (* shortest representation that round-trips *)
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let to_string ?(minify = false) t =
  let buf = Buffer.create 256 in
  let nl indent =
    if not minify then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make indent ' ')
    end
  in
  let rec go indent = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s -> escape buf s
    | List [] -> Buffer.add_string buf "[]"
    | List xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            nl (indent + 2);
            go (indent + 2) x)
          xs;
        nl indent;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            nl (indent + 2);
            escape buf k;
            Buffer.add_string buf (if minify then ":" else ": ");
            go (indent + 2) v)
          fields;
        nl indent;
        Buffer.add_char buf '}'
  in
  go 0 t;
  Buffer.contents buf

(* --- parsing --- *)

exception Bad of int * string

(* The parser recurses once per array or object, so the bound keeps a
   hostile document from exhausting the stack or the heap. *)
let max_depth = 512

let utf8_of_code buf u =
  (* encode a Unicode scalar value as UTF-8 *)
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xe0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xf0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
  end

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let fail msg = raise (Bad (!pos, msg)) in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    if !pos + String.length word <= n
       && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = int_of_string ("0x" ^ String.sub s !pos 4) in
    pos := !pos + 4;
    v
  in
  (* one buffer serves every string of the document; it is used only
     from the first escape of a string on *)
  let buf = Buffer.create 16 in
  let string_body () =
    expect '"';
    Buffer.clear buf;
    (* [start] is the first byte of the run not yet copied *)
    let rec go start =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' ->
          let run = !pos - start in
          incr pos;
          (* no escape has written to [buf]: the string is one run of [s] *)
          if Buffer.length buf = 0 then String.sub s start run
          else begin
            Buffer.add_substring buf s start run;
            Buffer.contents buf
          end
      | '\\' ->
          Buffer.add_substring buf s start (!pos - start);
          incr pos;
          if !pos >= n then fail "unterminated escape";
          let c = s.[!pos] in
          incr pos;
          (match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              let u = hex4 () in
              let u =
                (* surrogate pair *)
                if u >= 0xd800 && u <= 0xdbff && !pos + 2 <= n
                   && s.[!pos] = '\\'
                   && s.[!pos + 1] = 'u'
                then begin
                  pos := !pos + 2;
                  let lo = hex4 () in
                  0x10000 + ((u - 0xd800) lsl 10) + (lo - 0xdc00)
                end
                else u
              in
              utf8_of_code buf u
          | _ -> fail "bad escape");
          go !pos
      | _ ->
          incr pos;
          go start
    in
    go !pos
  in
  let number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then incr pos;
    let digits () =
      let d0 = !pos in
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do incr pos done;
      if !pos = d0 then fail "expected digit"
    in
    digits ();
    if peek () = Some '.' then begin
      is_float := true;
      incr pos;
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        incr pos;
        (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
        digits ()
    | _ -> ());
    let lit = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string lit)
    else
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> Float (float_of_string lit)
  in
  (* [depth] counts the arrays and objects around the value *)
  let rec value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some ('[' | '{') when depth >= max_depth ->
        fail (Printf.sprintf "nesting deeper than %d" max_depth)
    | Some '"' -> String (string_body ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin incr pos; List [] end
        else begin
          let rec items acc =
            let v = value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; items (v :: acc)
            | Some ']' -> incr pos; List (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          items []
        end
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin incr pos; Obj [] end
        else begin
          let field () =
            skip_ws ();
            let k = string_body () in
            skip_ws ();
            expect ':';
            let v = value (depth + 1) in
            (k, v)
          in
          let rec fields acc =
            let f = field () in
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; fields (f :: acc)
            | Some '}' -> incr pos; Obj (List.rev (f :: acc))
            | _ -> fail "expected , or }"
          in
          fields []
        end
    | Some _ -> number ()
  in
  match
    let v = value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) ->
      Error (Printf.sprintf "json: at offset %d: %s" at msg)
  | exception Failure msg -> Error ("json: " ^ msg)

(* --- accessors --- *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
let get_int = function Int n -> Some n | _ -> None

let get_float = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None

let get_bool = function Bool b -> Some b | _ -> None
let get_string = function String s -> Some s | _ -> None
let get_list = function List xs -> Some xs | _ -> None
