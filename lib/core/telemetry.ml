module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  exception Parse_error of string

  (* ---- emitter ---- *)

  let escape_string buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\b' -> Buffer.add_string buf "\\b"
        | '\012' -> Buffer.add_string buf "\\f"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  (* ---- floats ----

     The printed form of a float is fixed: "%.1f" for an integer below
     1e15 (the fraction marker makes it re-parse as [Float]); otherwise
     "%.15g" when that parses back to the same double, else "%.17g".
     [printf_repr] computes it with the C formatter and a parse-back.
     [add_float_repr] produces the same bytes without either on the
     common paths: integers go through [string_of_int], and
     2^-24 <= |f| < 1 (every posterior probability above 6e-8) gets
     its digits from exact integer arithmetic below. *)

  let printf_repr f =
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else
      let s = Printf.sprintf "%.15g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

  let powers base n =
    let a = Array.make n 1 in
    for k = 1 to n - 1 do
      a.(k) <- a.(k - 1) * base
    done;
    a

  let pow5 = powers 5 25
  let pow10 = powers 10 18
  let mask31 = (1 lsl 31) - 1

  (* For f = m * 2^e and k, s with s = -(e + k): the integer part of
     f * 10^k = m * 5^k / 2^s and the remainder m * 5^k mod 2^s, both
     exact. m < 2^53 and 5^k < 2^56 are split into 31-bit limbs so every
     partial product fits an OCaml int; the product is hi * 2^62 + lo
     with lo < 2^62. Needs 0 < s < 62 and a quotient below 2^62. *)
  let scaled m k s =
    let a = pow5.(k) in
    let m0 = m land mask31 and m1 = m lsr 31 in
    let a0 = a land mask31 and a1 = a lsr 31 in
    let p00 = m0 * a0 and p01 = (m0 * a1) + (m1 * a0) in
    let t1 = (p01 land mask31) + (p00 lsr 31) in
    let lo = ((t1 land mask31) lsl 31) lor (p00 land mask31) in
    let hi = (m1 * a1) + (p01 lsr 31) + (t1 lsr 31) in
    ((hi lsl (62 - s)) lor (lo lsr s), lo land ((1 lsl s) - 1))

  (* The [p]-digit decimal nearest to f = m * 2^e (ties to even, as the
     C formatter rounds the exact binary value) for 2^-24 <= f < 1: the
     digits [q] (exactly [p] of them), the decimal exponent [x] of the
     leading digit, and whether the decimal parses back to f. The
     parse-back is decided exactly: the decimal lies [dist] units of
     10^-k / 2^s from f, and f's rounding interval reaches 5^k / 2
     units up and down, or 5^k / 4 units down when m is a power of two
     (the next double below is half as far away; the tests print every
     power of two in the range). 5^k is odd, so the decimal never sits
     on a boundary and the parse's tie rule never matters. *)
  let decimal m e p =
    (* floor ((e + 52) log10 2) = floor (log10 2^(e+52)) <= floor (log10 f),
       and the first guess is at most one too small. *)
    let rec go x =
      let k = p - 1 - x in
      let s = -(e + k) in
      let q, r = scaled m k s in
      if q >= pow10.(p) then go (x + 1)
      else
        let half = 1 lsl (s - 1) in
        let up = r > half || (r = half && q land 1 = 1) in
        let dist = if up then (1 lsl s) - r else r in
        let reach =
          if m = 1 lsl 52 && not up then pow5.(k) lsr 2 else pow5.(k) lsr 1
        in
        let q = if up then q + 1 else q in
        if q = pow10.(p) then (pow10.(p - 1), x + 1, dist <= reach)
        else (q, x, dist <= reach)
    in
    go (((e + 52) * 78913) asr 18)

  (* "%.{p}g" of the decimal q * 10^(x - p + 1), q with exactly [p]
     digits: trailing zeros dropped, exponent form below 1e-4. Only
     x <= 0 occurs (x = 0 only as q = 10^(p-1), the round-up to 1). *)
  let add_g buf q x p =
    let q = ref q and n = ref p in
    while !q mod 10 = 0 && !n > 1 do
      q := !q / 10;
      decr n
    done;
    let digits = Bytes.create !n in
    for i = !n - 1 downto 0 do
      Bytes.unsafe_set digits i (Char.unsafe_chr (48 + (!q mod 10)));
      q := !q / 10
    done;
    if x >= 0 then Buffer.add_bytes buf digits
    else if x >= -4 then begin
      Buffer.add_string buf "0.";
      for _ = 2 to -x do
        Buffer.add_char buf '0'
      done;
      Buffer.add_bytes buf digits
    end
    else begin
      Buffer.add_char buf (Bytes.get digits 0);
      if !n > 1 then begin
        Buffer.add_char buf '.';
        Buffer.add_subbytes buf digits 1 (!n - 1)
      end;
      Buffer.add_string buf "e-0";
      Buffer.add_char buf (Char.unsafe_chr (48 - x))
    end

  let add_float_repr buf f =
    if Float.is_integer f && Float.abs f < 1e15 then begin
      if Float.sign_bit f && f = 0. then Buffer.add_char buf '-';
      Buffer.add_string buf (string_of_int (Float.to_int f));
      Buffer.add_string buf ".0"
    end
    else
      let a = Float.abs f in
      if a >= 0x1p-24 && a < 1. then begin
        if f < 0. then Buffer.add_char buf '-';
        let fr, ex = Float.frexp a in
        let m = Float.to_int (Float.ldexp fr 53) and e = ex - 53 in
        match decimal m e 15 with
        | q, x, true -> add_g buf q x 15
        | _ ->
            let q, x, _ = decimal m e 17 in
            add_g buf q x 17
      end
      else Buffer.add_string buf (printf_repr f)

  let float_repr f =
    let buf = Buffer.create 24 in
    add_float_repr buf f;
    Buffer.contents buf

  let add_float buf f =
    if Float.is_nan f || f = infinity || f = neg_infinity then
      Buffer.add_string buf "null"
    else add_float_repr buf f

  let to_buffer ?(pretty = true) buf v =
    let indent n = if pretty then Buffer.add_string buf (String.make n ' ') in
    let newline () = if pretty then Buffer.add_char buf '\n' in
    let rec emit depth = function
      | Null -> Buffer.add_string buf "null"
      | Bool b -> Buffer.add_string buf (string_of_bool b)
      | Int n -> Buffer.add_string buf (string_of_int n)
      | Float f -> add_float buf f
      | String s -> escape_string buf s
      | List [] -> Buffer.add_string buf "[]"
      | List items ->
          Buffer.add_char buf '[';
          newline ();
          List.iteri
            (fun i item ->
              if i > 0 then begin
                Buffer.add_char buf ',';
                newline ()
              end;
              indent ((depth + 1) * 2);
              emit (depth + 1) item)
            items;
          newline ();
          indent (depth * 2);
          Buffer.add_char buf ']'
      | Obj [] -> Buffer.add_string buf "{}"
      | Obj fields ->
          Buffer.add_char buf '{';
          newline ();
          List.iteri
            (fun i (k, item) ->
              if i > 0 then begin
                Buffer.add_char buf ',';
                newline ()
              end;
              indent ((depth + 1) * 2);
              escape_string buf k;
              Buffer.add_string buf (if pretty then ": " else ":");
              emit (depth + 1) item)
            fields;
          newline ();
          indent (depth * 2);
          Buffer.add_char buf '}'
    in
    emit 0 v

  let to_string ?pretty v =
    let buf = Buffer.create 1024 in
    to_buffer ?pretty buf v;
    Buffer.contents buf

  (* ---- parser: recursive descent ---- *)

  type parser_state = {
    src : string;
    mutable pos : int;
    max_depth : int;
    mutable depth : int;  (* arrays and objects open around [pos] *)
  }

  let fail st msg =
    raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

  let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

  let advance st = st.pos <- st.pos + 1

  let rec skip_ws st =
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance st;
        skip_ws st
    | _ -> ()

  let expect st c =
    match peek st with
    | Some d when d = c -> advance st
    | _ -> fail st (Printf.sprintf "expected %C" c)

  let literal st word value =
    let n = String.length word in
    if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word
    then begin
      st.pos <- st.pos + n;
      value
    end
    else fail st (Printf.sprintf "expected %s" word)

  let parse_string st =
    expect st '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek st with
      | None -> fail st "unterminated string"
      | Some '"' -> advance st
      | Some '\\' -> (
          advance st;
          match peek st with
          | None -> fail st "unterminated escape"
          | Some c ->
              advance st;
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
                  if st.pos + 4 > String.length st.src then
                    fail st "truncated \\u escape";
                  let hex = String.sub st.src st.pos 4 in
                  st.pos <- st.pos + 4;
                  let code =
                    try int_of_string ("0x" ^ hex)
                    with Failure _ -> fail st "bad \\u escape"
                  in
                  (match Uchar.of_int code with
                  | u -> Buffer.add_utf_8_uchar buf u
                  | exception Invalid_argument _ -> Buffer.add_char buf '?')
              | _ -> fail st "bad escape character");
              loop ())
      | Some c ->
          advance st;
          Buffer.add_char buf c;
          loop ()
    in
    loop ();
    Buffer.contents buf

  let parse_number st =
    let start = st.pos in
    let is_float = ref false in
    let continue = ref true in
    while !continue do
      match peek st with
      | Some ('0' .. '9' | '-' | '+') -> advance st
      | Some ('.' | 'e' | 'E') ->
          is_float := true;
          advance st
      | _ -> continue := false
    done;
    if st.pos = start then fail st "expected number";
    let s = String.sub st.src start (st.pos - start) in
    if !is_float then
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail st "malformed number"
    else
      match int_of_string_opt s with
      | Some n -> Int n
      | None -> (
          match float_of_string_opt s with
          | Some f -> Float f
          | None -> fail st "malformed number")

  (* Step over an opening bracket, refusing one level too many before
     the recursion below takes another stack frame for it. *)
  let enter st =
    if st.depth >= st.max_depth then
      fail st (Printf.sprintf "nesting deeper than %d levels" st.max_depth);
    st.depth <- st.depth + 1;
    advance st

  let leave st =
    st.depth <- st.depth - 1;
    advance st

  let rec parse_value st =
    skip_ws st;
    match peek st with
    | None -> fail st "unexpected end of input"
    | Some 'n' -> literal st "null" Null
    | Some 't' -> literal st "true" (Bool true)
    | Some 'f' -> literal st "false" (Bool false)
    | Some '"' -> String (parse_string st)
    | Some '[' ->
        enter st;
        skip_ws st;
        if peek st = Some ']' then begin
          leave st;
          List []
        end
        else
          let rec items acc =
            let v = parse_value st in
            skip_ws st;
            match peek st with
            | Some ',' ->
                advance st;
                items (v :: acc)
            | Some ']' ->
                leave st;
                List (List.rev (v :: acc))
            | _ -> fail st "expected ',' or ']'"
          in
          items []
    | Some '{' ->
        enter st;
        skip_ws st;
        if peek st = Some '}' then begin
          leave st;
          Obj []
        end
        else
          let field () =
            skip_ws st;
            let k = parse_string st in
            skip_ws st;
            expect st ':';
            let v = parse_value st in
            (k, v)
          in
          let rec fields acc =
            let f = field () in
            skip_ws st;
            match peek st with
            | Some ',' ->
                advance st;
                fields (f :: acc)
            | Some '}' ->
                leave st;
                Obj (List.rev (f :: acc))
            | _ -> fail st "expected ',' or '}'"
          in
          fields []
    | Some _ -> parse_number st

  let of_string ?(max_depth = max_int) s =
    let st = { src = s; pos = 0; max_depth; depth = 0 } in
    let v = parse_value st in
    skip_ws st;
    if st.pos <> String.length s then fail st "trailing garbage";
    v

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None

  let to_float = function
    | Int n -> float_of_int n
    | Float f -> f
    | _ -> raise (Parse_error "expected a number")

  let rec equal a b =
    match (a, b) with
    | Null, Null -> true
    | Bool x, Bool y -> x = y
    | Int x, Int y -> x = y
    | Float x, Float y -> x = y || (Float.is_nan x && Float.is_nan y)
    | Int x, Float y | Float y, Int x -> float_of_int x = y
    | String x, String y -> x = y
    | List xs, List ys ->
        List.length xs = List.length ys && List.for_all2 equal xs ys
    | Obj xs, Obj ys ->
        let sort l =
          List.sort (fun (ka, _) (kb, _) -> String.compare ka kb) l
        in
        List.length xs = List.length ys
        && List.for_all2
             (fun (ka, va) (kb, vb) -> ka = kb && equal va vb)
             (sort xs) (sort ys)
    | _ -> false
end

(* ------------------------------------------------------------------ *)

let reservoir_cap = 8192

(* splitmix64 step — the deterministic PRNG behind Algorithm-R reservoir
   sampling. Seeded per histogram from the metric name, so replacement
   decisions are a pure function of (name, observation index): two runs
   observing the same sequence keep identical reservoirs. *)
let splitmix64_next state =
  let z = Int64.add state 0x9E3779B97F4A7C15L in
  let x =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let x =
    Int64.mul
      (Int64.logxor x (Int64.shift_right_logical x 27))
      0x94D049BB133111EBL
  in
  (z, Int64.logxor x (Int64.shift_right_logical x 31))

type histogram_state = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  reservoir : float array;  (* uniform Algorithm-R sample, [stored] live *)
  mutable stored : int;
  mutable rng : int64;  (* splitmix64 state for replacement draws *)
}

type gauge_state = { mutable last : float; mutable max_seen : float }

type span_state = {
  mutable calls : int;
  mutable wall : float;
  mutable cpu : float;
}

type metric =
  | Counter of int Atomic.t
  | Gauge of gauge_state
  | Histogram of histogram_state
  | Span of span_state

type t = { lock : Mutex.t; metrics : (string, metric) Hashtbl.t }

let create () = { lock = Mutex.create (); metrics = Hashtbl.create 64 }

let global = create ()

let wrong_kind name =
  invalid_arg
    (Printf.sprintf "Telemetry: metric %S already exists with another kind"
       name)

(* Find-or-create under the registry lock; the returned metric's own
   fields are then mutated under the same lock (histograms, gauges,
   spans) or atomically (counters). *)
let intern t name make =
  Mutex.lock t.lock;
  let m =
    match Hashtbl.find_opt t.metrics name with
    | Some m -> m
    | None ->
        let m = make () in
        Hashtbl.add t.metrics name m;
        m
  in
  Mutex.unlock t.lock;
  m

let incr ?(by = 1) t name =
  if by < 0 then invalid_arg "Telemetry.incr: counters are monotone (by < 0)";
  match intern t name (fun () -> Counter (Atomic.make 0)) with
  | Counter c -> ignore (Atomic.fetch_and_add c by)
  | _ -> wrong_kind name

let add t name n = incr ~by:n t name

let counter t name =
  Mutex.lock t.lock;
  let v =
    match Hashtbl.find_opt t.metrics name with
    | Some (Counter c) -> Atomic.get c
    | Some _ ->
        Mutex.unlock t.lock;
        wrong_kind name
    | None -> 0
  in
  Mutex.unlock t.lock;
  v

let snapshot_counters t =
  Mutex.lock t.lock;
  let rows =
    Hashtbl.fold
      (fun name m acc ->
        match m with
        | Counter c -> (name, Atomic.get c) :: acc
        | _ -> acc)
      t.metrics []
  in
  Mutex.unlock t.lock;
  List.sort (fun (a, _) (b, _) -> String.compare a b) rows

let gauge t name v =
  match
    intern t name (fun () -> Gauge { last = v; max_seen = v })
  with
  | Gauge g ->
      Mutex.lock t.lock;
      g.last <- v;
      if v > g.max_seen then g.max_seen <- v;
      Mutex.unlock t.lock
  | _ -> wrong_kind name

let gauge_value t name =
  Mutex.lock t.lock;
  let v =
    match Hashtbl.find_opt t.metrics name with
    | Some (Gauge g) -> Some g.last
    | Some _ ->
        Mutex.unlock t.lock;
        wrong_kind name
    | None -> None
  in
  Mutex.unlock t.lock;
  v

let observe t name v =
  match
    intern t name (fun () ->
        Histogram
          {
            h_count = 0;
            h_sum = 0.;
            h_min = infinity;
            h_max = neg_infinity;
            reservoir = Array.make reservoir_cap 0.;
            stored = 0;
            rng = Int64.of_int (Hashtbl.hash name);
          })
  with
  | Histogram h ->
      Mutex.lock t.lock;
      h.h_count <- h.h_count + 1;
      h.h_sum <- h.h_sum +. v;
      if v < h.h_min then h.h_min <- v;
      if v > h.h_max then h.h_max <- v;
      (* Algorithm R (Vitter): after the reservoir fills, observation i
         (1-based) replaces a uniformly random slot with probability
         cap/i — every observation, not just the first [reservoir_cap],
         ends up in the percentile sample with equal probability. The
         seed implementation kept only the head of the stream, so long
         runs reported warm-up-only percentiles. *)
      if h.stored < reservoir_cap then begin
        h.reservoir.(h.stored) <- v;
        h.stored <- h.stored + 1
      end
      else begin
        let state, draw = splitmix64_next h.rng in
        h.rng <- state;
        let j =
          Int64.to_int
            (Int64.rem
               (Int64.logand draw Int64.max_int)
               (Int64.of_int h.h_count))
        in
        if j < reservoir_cap then h.reservoir.(j) <- v
      end;
      Mutex.unlock t.lock
  | _ -> wrong_kind name

type summary = {
  count : int;
  min : float;
  max : float;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let summarize h =
  let arr = Array.sub h.reservoir 0 h.stored in
  Array.sort Float.compare arr;
  let n = Array.length arr in
  let pct p =
    if n = 0 then Float.nan
    else
      let idx =
        Stdlib.min (n - 1)
          (int_of_float (Float.ceil (p *. float_of_int n)) - 1)
      in
      arr.(Stdlib.max 0 idx)
  in
  {
    count = h.h_count;
    min = h.h_min;
    max = h.h_max;
    mean = (if h.h_count = 0 then Float.nan else h.h_sum /. float_of_int h.h_count);
    p50 = pct 0.5;
    p90 = pct 0.9;
    p99 = pct 0.99;
  }

let histogram t name =
  Mutex.lock t.lock;
  let v =
    match Hashtbl.find_opt t.metrics name with
    | Some (Histogram h) -> Some (summarize h)
    | Some _ ->
        Mutex.unlock t.lock;
        wrong_kind name
    | None -> None
  in
  Mutex.unlock t.lock;
  v

let span t name f =
  let s =
    match
      intern t name (fun () -> Span { calls = 0; wall = 0.; cpu = 0. })
    with
    | Span s -> s
    | _ -> wrong_kind name
  in
  let w0 = Clock.now () and c0 = Sys.time () in
  let record () =
    let w = Clock.duration ~start:w0 ~stop:(Clock.now ())
    and c = Float.max 0. (Sys.time () -. c0) in
    Mutex.lock t.lock;
    s.calls <- s.calls + 1;
    s.wall <- s.wall +. w;
    s.cpu <- s.cpu +. c;
    Mutex.unlock t.lock
  in
  match f () with
  | r ->
      record ();
      r
  | exception e ->
      record ();
      raise e

let reset t =
  Mutex.lock t.lock;
  Hashtbl.reset t.metrics;
  Mutex.unlock t.lock

let to_json t =
  Mutex.lock t.lock;
  let snapshot = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.metrics [] in
  (* Summaries read mutable state, so build them before unlocking. *)
  let classify (name, m) =
    match m with
    | Counter c -> `Counter (name, Json.Int (Atomic.get c))
    | Gauge g ->
        `Gauge
          ( name,
            Json.Obj [ ("last", Json.Float g.last); ("max", Json.Float g.max_seen) ]
          )
    | Histogram h ->
        let s = summarize h in
        `Histogram
          ( name,
            Json.Obj
              [
                ("count", Json.Int s.count);
                ("min", Json.Float s.min);
                ("max", Json.Float s.max);
                ("mean", Json.Float s.mean);
                ("p50", Json.Float s.p50);
                ("p90", Json.Float s.p90);
                ("p99", Json.Float s.p99);
              ] )
    | Span s ->
        `Span
          ( name,
            Json.Obj
              [
                ("calls", Json.Int s.calls);
                ("wall_seconds", Json.Float s.wall);
                ("cpu_seconds", Json.Float s.cpu);
              ] )
  in
  let classified = List.map classify snapshot in
  Mutex.unlock t.lock;
  let bucket f =
    classified
    |> List.filter_map f
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Json.Obj
    [
      ( "counters",
        Json.Obj (bucket (function `Counter kv -> Some kv | _ -> None)) );
      ("gauges", Json.Obj (bucket (function `Gauge kv -> Some kv | _ -> None)));
      ( "histograms",
        Json.Obj (bucket (function `Histogram kv -> Some kv | _ -> None)) );
      ("spans", Json.Obj (bucket (function `Span kv -> Some kv | _ -> None)));
    ]
