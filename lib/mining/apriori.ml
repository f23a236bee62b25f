type config = { threshold : float; max_itemsets : int }

let default_config = { threshold = 0.02; max_itemsets = 1000 }

type t = {
  supports : float Itemset.Table.t;
  rounds : int;
  truncated : bool;
}

let of_supports ~rounds ~truncated pairs =
  let supports = Itemset.Table.create (List.length pairs * 2 + 1) in
  Itemset.Table.replace supports Itemset.empty 1.0;
  List.iter (fun (s, supp) -> Itemset.Table.replace supports s supp) pairs;
  { supports; rounds; truncated }

let support t s = Itemset.Table.find_opt t.supports s

let frequent t =
  Itemset.Table.fold (fun s supp acc -> (s, supp) :: acc) t.supports []
  |> List.sort (fun (a, _) (b, _) ->
         let c = Int.compare (Itemset.size a) (Itemset.size b) in
         if c <> 0 then c else Itemset.compare a b)

let frequent_of_size t k =
  List.filter (fun (s, _) -> Itemset.size s = k) (frequent t)

let count t = Itemset.Table.length t.supports - 1
let rounds t = t.rounds
let truncated t = t.truncated

(* Vertical counting. Every frequent 1-item gets a tid-bitset over the
   points, [bits] rows to a word; a candidate's count is the popcount of
   the AND of its items' bitsets. With 62 bits a word is non-negative, so
   the SWAR popcount below needs no 64-bit constants, and its count
   (at most 62) fits in bits 56–62, which the final multiply leaves it
   in. All bitsets of one mining run have the same length. *)
let bits = 62

let popcount x =
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x =
    (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333)
  in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

let and_into dst a b =
  for w = 0 to Array.length dst - 1 do
    Array.unsafe_set dst w (Array.unsafe_get a w land Array.unsafe_get b w)
  done

let count_and a b =
  let c = ref 0 in
  for w = 0 to Array.length a - 1 do
    c := !c + popcount (Array.unsafe_get a w land Array.unsafe_get b w)
  done;
  !c

(* Levels hold itemsets as rows of ascending item indices, in
   lexicographic order, so rows sharing a (k−1)-prefix are contiguous.
   Each join emits its pairs in that order again, so no level needs a
   sort. *)
module Rows = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = a = b
  let hash a = Array.fold_left (fun h x -> (h * 1_000_003) lxor x) 0 a
end)

(* Join the frequent k-itemsets [level] into the frequent (k+1)-itemsets,
   with their counts. Within a prefix group, rows i < j whose last items
   sit on distinct attributes make the candidate row(i) + last(j); it is
   kept when every k-subset is in [level] and its count reaches
   [min_count]. *)
let join ~bitsets ~attr_of ~min_count level =
  let k = Array.length level.(0) in
  let prev = Rows.create (2 * Array.length level) in
  Array.iter (fun row -> Rows.replace prev row ()) level;
  let probe = Array.make k 0 in
  (* Dropping either last item gives row i or row j; check the subsets
     that drop a prefix item. *)
  let closed row lj =
    let rec drop d =
      d = k - 1
      || begin
           Array.blit row 0 probe 0 d;
           Array.blit row (d + 1) probe d (k - 1 - d);
           probe.(k - 1) <- lj;
           Rows.mem prev probe && drop (d + 1)
         end
    in
    drop 0
  in
  let same_prefix a b =
    let rec go i = i = k - 1 || (a.(i) = b.(i) && go (i + 1)) in
    go 0
  in
  (* The AND of a row's item bitsets. *)
  let row_and = Array.make (Array.length bitsets.(0)) 0 in
  let bits_of row =
    if k = 1 then bitsets.(row.(0))
    else begin
      and_into row_and bitsets.(row.(0)) bitsets.(row.(1));
      for t = 2 to k - 1 do
        and_into row_and row_and bitsets.(row.(t))
      done;
      row_and
    end
  in
  let kept = ref [] in
  let n = Array.length level and g = ref 0 in
  while !g < n do
    let stop = ref (!g + 1) in
    while !stop < n && same_prefix level.(!g) level.(!stop) do
      incr stop
    done;
    for i = !g to !stop - 2 do
      let row = level.(i) in
      let li = row.(k - 1) and bits = bits_of row in
      for j = i + 1 to !stop - 1 do
        let lj = level.(j).(k - 1) in
        if attr_of.(li) <> attr_of.(lj) && closed row lj then begin
          let c = count_and bits bitsets.(lj) in
          if c >= min_count then
            kept := (Array.append row [| lj |], c) :: !kept
        end
      done
    done;
    g := !stop
  done;
  List.rev !kept

let mine ?(config = default_config) ~cards points =
  if config.threshold < 0. || config.threshold > 1. then
    invalid_arg "Apriori.mine: threshold must be in [0, 1]";
  if config.max_itemsets < 1 then
    invalid_arg "Apriori.mine: max_itemsets must be positive";
  let supports = Itemset.Table.create 1024 in
  Itemset.Table.replace supports Itemset.empty 1.0;
  let n_points = Array.length points in
  if n_points = 0 then { supports; rounds = 0; truncated = false }
  else begin
    (* Level-1 counting: one pass, a dense counter per (attribute, value). *)
    let counters = Array.map (fun c -> Array.make c 0) cards in
    Array.iter
      (fun p ->
        if Array.length p <> Array.length cards then
          invalid_arg "Apriori.mine: tuple arity mismatch";
        Array.iteri
          (fun a v ->
            if v < 0 || v >= cards.(a) then
              invalid_arg "Apriori.mine: value out of range";
            counters.(a).(v) <- counters.(a).(v) + 1)
          p)
      points;
    let min_count =
      max 1 (int_of_float (Float.ceil (config.threshold *. float_of_int n_points)))
    in
    let support c = float_of_int c /. float_of_int n_points in
    (* The frequent items, indexed in (attribute, value) order. *)
    let items = ref [] in
    for a = Array.length cards - 1 downto 0 do
      for v = cards.(a) - 1 downto 0 do
        if counters.(a).(v) >= min_count then items := (a, v) :: !items
      done
    done;
    let item = Array.of_list !items in
    let attr_of = Array.map fst item in
    let index = Array.map (fun c -> Array.make c (-1)) cards in
    Array.iteri
      (fun i (a, v) ->
        index.(a).(v) <- i;
        Itemset.Table.replace supports
          (Itemset.of_list [ (a, v) ])
          (support counters.(a).(v)))
      item;
    let words = (n_points + bits - 1) / bits in
    let bitsets = Array.map (fun _ -> Array.make words 0) item in
    Array.iteri
      (fun r p ->
        let w = r / bits and bit = 1 lsl (r mod bits) in
        Array.iteri
          (fun a v ->
            let i = index.(a).(v) in
            if i >= 0 then bitsets.(i).(w) <- bitsets.(i).(w) lor bit)
          p)
      points;
    let rec loop level rounds =
      if Array.length level = 0 then (rounds, false)
      else if Array.length level > config.max_itemsets then (rounds, true)
      else
        match join ~bitsets ~attr_of ~min_count level with
        | [] -> (rounds, false)
        | next ->
            List.iter
              (fun (row, c) ->
                Itemset.Table.replace supports
                  (Itemset.of_list
                     (Array.fold_right (fun i l -> item.(i) :: l) row []))
                  (support c))
              next;
            loop (Array.of_list (List.map fst next)) (rounds + 1)
    in
    let n_items = Array.length item in
    let rounds, truncated =
      loop (Array.init n_items (fun i -> [| i |])) (min 1 n_items)
    in
    { supports; rounds; truncated }
  end
