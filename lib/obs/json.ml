type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---- emitting ---- *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* The digits of [n <= 0] (so [min_int] needs no special case), zero-padded
   to [width]. *)
let rec add_digits buf n width =
  if width > 1 || n <= -10 then add_digits buf (n / 10) (width - 1);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let add_int buf i =
  if i < 0 then Buffer.add_char buf '-';
  add_digits buf (if i < 0 then i else -i) 1

(* The C routine behind [Printf.sprintf "%.15g"], called without the
   format interpreter: byte-identical output for finite floats. *)
external format_float : string -> float -> string = "caml_format_float"

(* A finite float prints as [%.15g] if that parses back to the same float,
   else as [%.17g], with ".0" appended when neither '.' nor 'e' shows
   (JSON has no "3.").  Not the shortest round trip: 0.1 +. 0.7 prints as
   0.79999999999999993, though 0.7999999999999999 reads back too. *)
let float_repr f =
  let s = format_float "%.15g" f in
  let s = if float_of_string s = f then s else format_float "%.17g" f in
  if String.contains s '.' || String.contains s 'e' || String.contains s 'E' then s
  else s ^ ".0"

let pow10 = Array.init 19 (fun i -> int_of_string ("1" ^ String.make i '0'))

(* [n]·10^-j in fixed point, trailing fraction zeros dropped but one. *)
let rec add_fixed buf n j =
  if j > 0 && n mod 10 = 0 then add_fixed buf (n / 10) (j - 1)
  else begin
    add_int buf (n / pow10.(j));
    Buffer.add_char buf '.';
    if j = 0 then Buffer.add_char buf '0' else add_digits buf (-(n mod pow10.(j))) j
  end

(* Long division of m/2^q: [n] is it cut to [j] fraction digits and
   r·2^-q·10^-j < 10^-j the rest; [k] more digits are due.  Then round
   half-to-even on the exact rest.  The 15-digit result parses back to
   m/2^q iff it is within half an ulp, 2^-(q+1): 2r < 10^j rounding down,
   2(2^q - r) < 10^j rounding up.  (Exactly half an ulp away would need
   2^(q+1) to divide 10^j, but j <= q here.)  Failing that, two more
   digits give the 17-digit form. *)
let rec long_division buf q n r j k seventeen =
  let one = 1 lsl q in
  if k > 0 then
    let r = 10 * r in
    long_division buf q ((10 * n) + (r lsr q)) (r land (one - 1)) (j + 1) (k - 1) seventeen
  else
    let up = 2 * r > one || (2 * r = one && n land 1 = 1) in
    let err2 = if up then 2 * (one - r) else 2 * r in
    if seventeen || err2 < pow10.(j) then
      add_fixed buf (if up then n + 1 else n) j
    else long_division buf q n r j 2 true

let rec int_digits ip d = if ip >= pow10.(d) then int_digits ip (d + 1) else d

(* [float_repr] in integer arithmetic for |f| in [2^-6, 1e15) save powers
   of two, whose ulp below is narrower: there |f| = m/2^q exactly with m
   the 53-bit significand and 3 <= q <= 58, so 10r < 2^62 never
   overflows, and 15 significant digits are j = 15 - (integer digits)
   fraction digits, or 16 below 0.1. *)
let add_float buf f =
  let a = Float.abs f in
  let bits = Int64.to_int (Int64.bits_of_float a) in
  let m = bits land ((1 lsl 52) - 1) lor (1 lsl 52) and q = 1075 - (bits lsr 52) in
  if a >= 0.015625 && a < 1e15 && m <> 1 lsl 52 then begin
    if f < 0. then Buffer.add_char buf '-';
    let ip = m lsr q in
    let j = if ip > 0 then 15 - int_digits ip 1 else if a < 0.1 then 16 else 15 in
    long_division buf q ip (m land ((1 lsl q) - 1)) 0 j false
  end
  else Buffer.add_string buf (if Float.is_finite f then float_repr f else "null")

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f -> add_float buf f
  | String s -> escape_to buf s
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
        (fun i (key, value) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_to buf key;
          Buffer.add_char buf ':';
          to_buffer buf value)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

let to_channel oc v = output_string oc (to_string v)

(* ---- parsing: recursive descent over the string ---- *)

exception Parse_error of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let error msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> error (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else error (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then error "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= n then error "unterminated escape");
          (match s.[!pos] with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              if !pos + 4 >= n then error "truncated \\u escape";
              let hex = String.sub s (!pos + 1) 4 in
              let code =
                match int_of_string_opt ("0x" ^ hex) with
                | Some c -> c
                | None -> error "bad \\u escape"
              in
              (* Telemetry strings are ASCII; encode the code point as UTF-8. *)
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end;
              pos := !pos + 4
          | c -> error (Printf.sprintf "bad escape \\%c" c));
          advance ();
          loop ()
      | c ->
          Buffer.add_char buf c;
          advance ();
          loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_number_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && is_number_char s.[!pos] do
      advance ()
    done;
    let token = String.sub s start (!pos - start) in
    match int_of_string_opt token with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt token with
        | Some f -> Float f
        | None -> error (Printf.sprintf "bad number %S" token))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let value = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((key, value) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((key, value) :: acc)
            | _ -> error "expected , or } in object"
          in
          Obj (fields [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let value = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (value :: acc)
            | Some ']' ->
                advance ();
                List.rev (value :: acc)
            | _ -> error "expected , or ] in array"
          in
          List (items [])
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  let value = parse_value () in
  skip_ws ();
  if !pos <> n then error "trailing garbage";
  value

let of_string s =
  match parse s with
  | v -> Ok v
  | exception Parse_error (pos, msg) -> Error (Printf.sprintf "at offset %d: %s" pos msg)

let of_string_exn s =
  match of_string s with Ok v -> v | Error msg -> failwith ("Json.of_string_exn: " ^ msg)

(* ---- JSONL: newline-delimited records ---- *)

type jsonl = { records : t list; remnant : string option }

(* A record is one newline-terminated line.  Anything after the final
   newline is by definition not a complete record — a process that died
   mid-append leaves exactly such a tail — so it is returned as the
   [remnant] for the caller to quarantine, never parsed, even when the
   bytes happen to form valid JSON (the tear may have truncated a longer
   record to a shorter valid one).  A complete line that fails to parse
   is real corruption and stays an error. *)
let record_of_line lineno line =
  if String.trim line = "" then Ok None
  else
    Result.map_error (Printf.sprintf "line %d: %s" lineno) (Result.map Option.some (of_string line))

let jsonl_of_string s =
  let n = String.length s in
  let rec lines acc lineno start =
    match String.index_from_opt s start '\n' with
    | None ->
        let tail = String.sub s start (n - start) in
        Ok { records = List.rev acc; remnant = (if tail = "" then None else Some tail) }
    | Some nl -> (
        match record_of_line lineno (String.sub s start (nl - start)) with
        | Ok None -> lines acc (lineno + 1) (nl + 1)
        | Ok (Some v) -> lines (v :: acc) (lineno + 1) (nl + 1)
        | Error msg -> Error msg)
  in
  lines [] 1 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_jsonl_file path =
  match read_file path with
  | content -> jsonl_of_string content
  | exception Sys_error msg -> Error msg

(* The same rules, reading no further than the first record. *)
let first_record path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let rec scan lineno =
        let start = pos_in ic in
        match In_channel.input_line ic with
        (* complete exactly when [input_line] consumed a newline after it *)
        | Some line when pos_in ic > start + String.length line -> (
            match record_of_line lineno line with Ok None -> scan (lineno + 1) | r -> r)
        | _ -> Ok None
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> scan 1)

(* ---- atomic file replacement ---- *)

(* Write-tmp-then-rename: the destination either keeps its old content or
   holds the complete new content — a crash mid-write can never leave a
   torn file at [path].  The fsync before the rename keeps the ordering
   honest on real filesystems (rename must not be durable before the
   data).  fsync failure (e.g. on tmpfs-like filesystems that reject it)
   is not fatal: the rename itself is still atomic. *)
let write_file_atomic path writer =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  match writer oc with
  | result ->
      flush oc;
      (try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ());
      close_out oc;
      Sys.rename tmp path;
      result
  | exception exn ->
      let bt = Printexc.get_raw_backtrace () in
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      Printexc.raise_with_backtrace exn bt

(* ---- accessors ---- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | Null -> Some nan
  | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None
let to_string_opt = function String s -> Some s | _ -> None
let to_list_opt = function List items -> Some items | _ -> None
