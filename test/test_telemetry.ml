(* Tests for the Telemetry registry and its JSON emitter/parser. *)

module T = Mrsl.Telemetry
module Json = Mrsl.Telemetry.Json

let test_counters_monotone () =
  let t = T.create () in
  Alcotest.(check int) "zero before first touch" 0 (T.counter t "a");
  T.incr t "a";
  Alcotest.(check int) "one" 1 (T.counter t "a");
  T.incr ~by:41 t "a";
  Alcotest.(check int) "accumulates" 42 (T.counter t "a");
  T.add t "a" 0;
  Alcotest.(check int) "zero add is a no-op" 42 (T.counter t "a");
  Alcotest.check_raises "negative increments rejected"
    (Invalid_argument "Telemetry.incr: counters are monotone (by < 0)")
    (fun () -> T.incr ~by:(-1) t "a")

let test_counters_concurrent () =
  let t = T.create () in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () -> for _ = 1 to 1000 do T.incr t "hits" done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "atomic under contention" 4000 (T.counter t "hits")

let test_gauges () =
  let t = T.create () in
  Alcotest.(check bool) "absent" true (T.gauge_value t "depth" = None);
  T.gauge t "depth" 3.;
  T.gauge t "depth" 1.;
  Alcotest.(check bool) "last wins" true (T.gauge_value t "depth" = Some 1.);
  match Json.member "gauges" (T.to_json t) with
  | Some (Json.Obj [ ("depth", g) ]) ->
      Alcotest.(check (float 0.)) "max retained" 3.
        (Json.to_float (Option.get (Json.member "max" g)))
  | _ -> Alcotest.fail "gauge snapshot shape"

let test_histogram_summary () =
  let t = T.create () in
  List.iter (T.observe t "lat") [ 5.; 1.; 4.; 2.; 3. ];
  match T.histogram t "lat" with
  | None -> Alcotest.fail "histogram missing"
  | Some s ->
      Alcotest.(check int) "count" 5 s.count;
      Alcotest.(check (float 0.)) "min" 1. s.min;
      Alcotest.(check (float 0.)) "max" 5. s.max;
      Alcotest.(check (float 1e-9)) "mean" 3. s.mean;
      Alcotest.(check (float 0.)) "p50" 3. s.p50

let test_span_accumulates () =
  let t = T.create () in
  let v = T.span t "work" (fun () -> 7) in
  Alcotest.(check int) "span returns value" 7 v;
  (try T.span t "work" (fun () -> failwith "boom") with Failure _ -> ());
  match Json.member "spans" (T.to_json t) with
  | Some (Json.Obj [ ("work", s) ]) ->
      Alcotest.(check int) "both calls recorded (even the raising one)" 2
        (match Json.member "calls" s with Some (Json.Int n) -> n | _ -> -1)
  | _ -> Alcotest.fail "span snapshot shape"

let test_json_round_trip () =
  let t = T.create () in
  T.incr ~by:7 t "parallel.tasks";
  T.gauge t "parallel.domains" 4.;
  List.iter (T.observe t "gibbs.memo_hit_rate") [ 0.25; 0.5; 0.125 ];
  ignore (T.span t "parallel.run" (fun () -> ()));
  let j = T.to_json t in
  let round_tripped = Json.of_string (Json.to_string j) in
  Alcotest.(check bool) "snapshot round-trips through text" true
    (Json.equal j round_tripped);
  (* compact form round-trips too *)
  let compact = Json.of_string (Json.to_string ~pretty:false j) in
  Alcotest.(check bool) "compact round-trips" true (Json.equal j compact)

let test_json_parser () =
  let j =
    Json.of_string
      {| {"a": [1, 2.5, -3e2, true, false, null], "s": "he\"llo\nA"} |}
  in
  (match Json.member "a" j with
  | Some (Json.List [ Json.Int 1; Json.Float 2.5; Json.Float f; Json.Bool true;
                      Json.Bool false; Json.Null ]) ->
      Alcotest.(check (float 0.)) "exponent" (-300.) f
  | _ -> Alcotest.fail "array parse");
  (match Json.member "s" j with
  | Some (Json.String s) -> Alcotest.(check string) "escapes" "he\"llo\nA" s
  | _ -> Alcotest.fail "string parse");
  Alcotest.check_raises "trailing garbage rejected"
    (Json.Parse_error "trailing garbage at offset 5") (fun () ->
      ignore (Json.of_string "null x"))

let test_json_floats_survive () =
  let values = [ 0.1; 1. /. 3.; 1e-9; 12345.678901234567; 1.0; -0.0 ] in
  List.iter
    (fun f ->
      let s = Json.to_string (Json.Float f) in
      match Json.of_string s with
      | Json.Float g -> Alcotest.(check (float 0.)) s f g
      | Json.Int n -> Alcotest.(check (float 0.)) s f (float_of_int n)
      | _ -> Alcotest.fail "float parse")
    values;
  (* non-finite floats degrade to null rather than emitting invalid JSON *)
  Alcotest.(check string) "nan -> null" "null" (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "inf -> null" "null" (Json.to_string (Json.Float infinity))

(* --- JSON edge cases (observability PR satellite) -------------------- *)

let parse_fails s =
  match Json.of_string s with
  | exception Json.Parse_error _ -> true
  | _ -> false

let test_json_unicode_escapes () =
  (* control characters are emitted as \uXXXX and must round-trip *)
  let s = "a\x01b\x1fc\ttab\x00nul" in
  let text = Json.to_string (Json.String s) in
  Alcotest.(check bool) "control chars escaped" true
    (Astring_like.contains text "\\u0001");
  (match Json.of_string text with
  | Json.String s' -> Alcotest.(check string) "round-trip" s s'
  | _ -> Alcotest.fail "string parse");
  (* explicit \uXXXX decoding, incl. non-ASCII code points *)
  (match Json.of_string {| "\u0041\u00e9\u4e16" |} with
  | Json.String s' ->
      Alcotest.(check string) "\\uXXXX -> utf-8" "A\xc3\xa9\xe4\xb8\x96" s'
  | _ -> Alcotest.fail "unicode parse");
  (* malformed escapes are parse errors, not silent corruption *)
  List.iter
    (fun bad ->
      Alcotest.(check bool) (Printf.sprintf "rejects %s" bad) true
        (parse_fails bad))
    [ {| "\u00" |}; {| "\u00g1" |}; {| "\u |}; {| "\q" |}; {| "unterminated |} ]

let test_json_deep_nesting () =
  let depth = 500 in
  let text =
    String.concat "" (List.init depth (fun _ -> "["))
    ^ "1"
    ^ String.concat "" (List.init depth (fun _ -> "]"))
  in
  let rec unwrap n j =
    if n = 0 then j
    else
      match j with
      | Json.List [ inner ] -> unwrap (n - 1) inner
      | _ -> Alcotest.fail "nesting shape"
  in
  (match unwrap depth (Json.of_string text) with
  | Json.Int 1 -> ()
  | _ -> Alcotest.fail "innermost value");
  (* unbalanced nesting is rejected *)
  Alcotest.(check bool) "unbalanced rejected" true (parse_fails "[[1]")

let test_json_depth_bound () =
  let nested n = String.make n '[' ^ "1" ^ String.make n ']' in
  Alcotest.(check bool) "depth 4 under a bound of 4" true
    (Json.equal (Json.of_string ~max_depth:4 (nested 4))
       (Json.of_string (nested 4)));
  Alcotest.check_raises "depth 5 over a bound of 4"
    (Json.Parse_error "nesting deeper than 4 levels at offset 4") (fun () ->
      ignore (Json.of_string ~max_depth:4 (nested 5)));
  Alcotest.check_raises "objects count as levels"
    (Json.Parse_error "nesting deeper than 1 levels at offset 5") (fun () ->
      ignore (Json.of_string ~max_depth:1 {|{"a":{}}|}));
  (* siblings do not add up: depth is nesting, not count *)
  Alcotest.(check bool) "siblings" true
    (Json.equal (Json.of_string ~max_depth:2 "[[],[1],{}]")
       (Json.List [ Json.List []; Json.List [ Json.Int 1 ]; Json.Obj [] ]))

(* --- the float printer ------------------------------------------------ *)

(* The printing rule [Json.float_repr] must keep, computed the way it
   always was: the C formatter plus a parse-back. *)
let reference_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let same_repr f =
  let got = Json.float_repr f and want = reference_repr f in
  if got <> want then
    QCheck2.Test.fail_reportf "%h: float_repr %S, reference %S" f got want;
  true

(* Doubles m * 2^-e with m odd are exact decimals with as many
   significant digits as m * 5^e; those with 16 (18) digits sit exactly
   halfway between two 15-digit (17-digit) decimals. *)
let decimal_ties digits =
  List.concat_map
    (fun e ->
      List.filter_map
        (fun m ->
          let f = Float.ldexp (float_of_int m) (-e) in
          let exact = Printf.sprintf "%.40e" f in
          (* significant digits of the exact expansion *)
          let mant = String.sub exact 0 (String.index exact 'e') in
          let mant =
            String.concat "" (String.split_on_char '.' mant)
          in
          let len = ref (String.length mant) in
          while !len > 1 && mant.[!len - 1] = '0' do decr len done;
          if !len = digits then Some f else None)
        (List.init 200 (fun i -> (2 * i) + 1)))
    (List.init 40 (fun i -> i + 15))

let float_edge_cases =
  let around f = [ Float.pred f; f; Float.succ f ] in
  let neg l = l @ List.map Float.neg l in
  neg
    (List.concat
       [
         [ Float.nan; Float.infinity; 0.; Float.min_float; 4.9e-324; Float.pred Float.min_float;
           Float.max_float; Float.epsilon; 0.1; 0.2; 0.3; 1. /. 3.; 2. /. 3. ];
         List.concat_map (fun k -> around (10. ** float_of_int k))
           (List.init 41 (fun i -> i - 25));
         List.concat_map around
           [ 1e15; 1e15 -. 1.; 1e15 +. 2.; 999999999999999.5; 1e16; 2. ** 53. ];
         List.concat_map around
           [ 1e-7; 2. ** -24.; 2. ** -23.; 1e-4; 1.; 0.5; 9.5e-5;
             0.000099999999999999995; 0.99999999999999995 ];
         List.init 60 (fun i -> 2. ** float_of_int (-i));
         decimal_ties 16;
         decimal_ties 18;
       ])

let test_float_repr_edge_cases () =
  Alcotest.(check bool) "15-digit ties present" true (decimal_ties 16 <> []);
  Alcotest.(check bool) "17-digit ties present" true (decimal_ties 18 <> []);
  List.iter
    (fun f ->
      Alcotest.(check string) (Printf.sprintf "%h" f) (reference_repr f)
        (Json.float_repr f))
    float_edge_cases;
  (* a few fixed points of the rule, spelled out *)
  List.iter
    (fun (f, want) -> Alcotest.(check string) want want (Json.float_repr f))
    [ (0.1, "0.1"); (-0., "-0.0"); (3., "3.0"); (1e15, "1e+15");
      (1. /. 3., "0.33333333333333331"); (0.7, "0.7");
      (0.1 +. 0.2, "0.30000000000000004"); (2.5e-5, "2.5e-05");
      (Float.pred 1., "0.99999999999999989") ];
  List.iter
    (fun f ->
      Alcotest.(check string) "non-finite prints null" "null"
        (Json.to_string (Json.Float f)))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let float_gen =
  let open QCheck2.Gen in
  let scaled (m, e) = Float.ldexp (float_of_int (m lor (1 lsl 52))) (e - 53) in
  frequency
    [
      (3, map Int64.float_of_bits int64);
      (4, map scaled (pair (int_range 0 ((1 lsl 52) - 1)) (int_range (-26) 1)));
      ( 2,
        map
          (fun (a, b) -> float_of_int a /. float_of_int (a + b))
          (pair (int_range 0 5000) (int_range 1 5000)) );
      (1, oneofl float_edge_cases);
    ]

let test_float_repr_property =
  Helpers.qcheck ~count:100_000 "JSON float_repr = printf rule" float_gen
    same_repr

let test_json_nonfinite_in_structures () =
  (* non-finite floats degrade to null even when nested, so any emitted
     document (e.g. a Perfetto trace with a nan counter) stays parseable *)
  let j =
    Json.Obj
      [ ("a", Json.List [ Json.Float Float.nan; Json.Float neg_infinity ]);
        ("b", Json.Float 1.5) ]
  in
  match Json.of_string (Json.to_string j) with
  | Json.Obj [ ("a", Json.List [ Json.Null; Json.Null ]); ("b", b) ] ->
      Alcotest.(check (float 0.)) "finite survives" 1.5 (Json.to_float b)
  | _ -> Alcotest.fail "non-finite should become null"

(* --- Algorithm-R reservoir (observability PR satellite) -------------- *)

let test_reservoir_deterministic () =
  let fill t =
    for i = 1 to 50_000 do
      T.observe t "m" (float_of_int i)
    done
  in
  let a = T.create () and b = T.create () in
  fill a;
  fill b;
  match (T.histogram a "m", T.histogram b "m") with
  | Some sa, Some sb ->
      Alcotest.(check int) "count" 50_000 sa.count;
      Alcotest.(check (float 0.)) "p50 identical" sa.p50 sb.p50;
      Alcotest.(check (float 0.)) "p99 identical" sa.p99 sb.p99;
      Alcotest.(check (float 0.)) "mean identical" sa.mean sb.mean
  | _ -> Alcotest.fail "histogram missing"

let test_reservoir_unbiased () =
  (* Observe 0..99_999 in order. A first-N-kept histogram would report
     p50 ~ 4096 (half the 8192-entry window); Algorithm R keeps a uniform
     sample of the whole stream, so p50 must sit near 50_000. *)
  let t = T.create () in
  let n = 100_000 in
  for i = 0 to n - 1 do
    T.observe t "stream" (float_of_int i)
  done;
  match T.histogram t "stream" with
  | None -> Alcotest.fail "histogram missing"
  | Some s ->
      Alcotest.(check int) "count sees whole stream" n s.count;
      Alcotest.(check (float 0.)) "min exact" 0. s.min;
      Alcotest.(check (float 0.)) "max exact" (float_of_int (n - 1)) s.max;
      let mid = float_of_int n /. 2. in
      Alcotest.(check bool)
        (Printf.sprintf "p50 %.0f within 5%% of %.0f" s.p50 mid)
        true
        (Float.abs (s.p50 -. mid) < 0.05 *. float_of_int n);
      Alcotest.(check bool)
        (Printf.sprintf "p90 %.0f near %.0f" s.p90 (0.9 *. float_of_int n))
        true
        (Float.abs (s.p90 -. (0.9 *. float_of_int n)) < 0.05 *. float_of_int n)

let test_reset () =
  let t = T.create () in
  T.incr t "a";
  T.reset t;
  Alcotest.(check int) "counters dropped" 0 (T.counter t "a")

let suite =
  [
    ("counters monotone", `Quick, test_counters_monotone);
    ("counters atomic across domains", `Quick, test_counters_concurrent);
    ("gauges last + max", `Quick, test_gauges);
    ("histogram summary", `Quick, test_histogram_summary);
    ("span accumulates", `Quick, test_span_accumulates);
    ("JSON round-trip", `Quick, test_json_round_trip);
    ("JSON parser", `Quick, test_json_parser);
    ("JSON floats survive", `Quick, test_json_floats_survive);
    ("JSON unicode escapes", `Quick, test_json_unicode_escapes);
    ("JSON deep nesting", `Quick, test_json_deep_nesting);
    ("JSON depth bound", `Quick, test_json_depth_bound);
    ("JSON float_repr edge cases", `Quick, test_float_repr_edge_cases);
    test_float_repr_property;
    ("JSON non-finite in structures", `Quick, test_json_nonfinite_in_structures);
    ("reservoir deterministic", `Quick, test_reservoir_deterministic);
    ("reservoir unbiased (Algorithm R)", `Quick, test_reservoir_unbiased);
    ("reset", `Quick, test_reset);
  ]
