module Json = Mrsl.Telemetry.Json

type endpoint = Unix_socket of string | Tcp of string * int

let endpoint_to_string = function
  | Unix_socket path -> Printf.sprintf "unix:%s" path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

type op =
  | Ping
  | Stats
  | Reload of string option
  | Shutdown
  | Infer of string option array

type request = { id : Json.t option; deadline_ms : int option; op : op }

let req ?id ?deadline_ms op = { id; deadline_ms; op }

let op_name = function
  | Ping -> "ping"
  | Stats -> "stats"
  | Reload _ -> "reload"
  | Shutdown -> "shutdown"
  | Infer _ -> "infer"

let missing_marker = "?"

let bad_request ?id fmt =
  Printf.ksprintf
    (fun msg ->
      let context =
        match id with
        | Some id -> [ ("id", Json.to_string ~pretty:false id) ]
        | None -> []
      in
      Error (Mrsl.Error.make ~context Mrsl.Error.Input ~code:"protocol.bad_request" msg))
    fmt

let parse_tuple ?id cells =
  let n = List.length cells in
  let labels = Array.make (max n 1) None in
  let rec fill i = function
    | [] -> Ok (Infer labels)
    | Json.Null :: rest ->
        labels.(i) <- None;
        fill (i + 1) rest
    | Json.String s :: rest ->
        labels.(i) <- (if s = missing_marker then None else Some s);
        fill (i + 1) rest
    | v :: _ ->
        bad_request ?id "tuple cell %d must be a string label or null (got %s)"
          i
          (Json.to_string ~pretty:false v)
  in
  if n = 0 then bad_request ?id "tuple must be a non-empty array"
  else fill 0 cells

let max_depth = 8

let parse_request line =
  match Json.of_string ~max_depth line with
  | exception Json.Parse_error msg ->
      Error (Mrsl.Error.make Mrsl.Error.Input ~code:"protocol.parse" msg)
  | Json.Obj _ as obj -> (
      let id = Json.member "id" obj in
      let deadline =
        match Json.member "deadline_ms" obj with
        | None | Some Json.Null -> Ok None
        | Some (Json.Int ms) when ms >= 0 -> Ok (Some ms)
        | Some _ ->
            bad_request ?id "\"deadline_ms\" must be a non-negative integer"
      in
      match deadline with
      | Error e -> Error e
      | Ok deadline_ms -> (
          match Json.member "op" obj with
          | Some (Json.String op) -> (
              let req op = Ok { id; deadline_ms; op } in
              match op with
              | "ping" -> req Ping
              | "stats" -> req Stats
              | "shutdown" -> req Shutdown
              | "reload" -> (
                  match Json.member "path" obj with
                  | None | Some Json.Null -> req (Reload None)
                  | Some (Json.String p) -> req (Reload (Some p))
                  | Some _ -> bad_request ?id "reload path must be a string")
              | "infer" -> (
                  match Json.member "tuple" obj with
                  | Some (Json.List cells) ->
                      Result.map
                        (fun op -> { id; deadline_ms; op })
                        (parse_tuple ?id cells)
                  | Some _ | None ->
                      bad_request ?id "infer requires a \"tuple\" array")
              | other -> bad_request ?id "unknown op %S" other)
          | Some _ -> bad_request ?id "\"op\" must be a string"
          | None -> bad_request ?id "request has no \"op\" field"))
  | _ -> Error (Mrsl.Error.make Mrsl.Error.Input ~code:"protocol.parse" "not a JSON object")

let request_to_line { id; deadline_ms; op } =
  let fields =
    match op with
    | Ping -> [ ("op", Json.String "ping") ]
    | Stats -> [ ("op", Json.String "stats") ]
    | Shutdown -> [ ("op", Json.String "shutdown") ]
    | Reload None -> [ ("op", Json.String "reload") ]
    | Reload (Some p) ->
        [ ("op", Json.String "reload"); ("path", Json.String p) ]
    | Infer labels ->
        [
          ("op", Json.String "infer");
          ( "tuple",
            Json.List
              (Array.to_list
                 (Array.map
                    (function
                      | None -> Json.Null | Some s -> Json.String s)
                    labels)) );
        ]
  in
  let fields =
    match deadline_ms with
    | Some ms -> fields @ [ ("deadline_ms", Json.Int ms) ]
    | None -> fields
  in
  let fields =
    match id with Some id -> ("id", id) :: fields | None -> fields
  in
  Json.to_string ~pretty:false (Json.Obj fields) ^ "\n"

let ok_line ?id ~kind fields =
  let fields =
    (match id with Some id -> [ ("id", id) ] | None -> [])
    @ [ ("ok", Json.Bool true); ("kind", Json.String kind) ]
    @ fields
  in
  Json.to_string ~pretty:false (Json.Obj fields) ^ "\n"

let error_line ?id (e : Mrsl.Error.t) =
  (* An id recovered from the broken request's context (stored by
     [bad_request]) is echoed when the caller did not pass one. *)
  let id =
    match id with
    | Some _ -> id
    | None -> (
        match List.assoc_opt "id" e.context with
        | Some raw -> ( try Some (Json.of_string ~max_depth raw) with _ -> None)
        | None -> None)
  in
  let context =
    List.filter (fun (k, _) -> k <> "id") e.context
    |> List.map (fun (k, v) -> (k, Json.String v))
  in
  let error =
    Json.Obj
      ([
         ("class", Json.String (Mrsl.Error.class_name e.class_));
         ("code", Json.String e.code);
         ("message", Json.String e.message);
       ]
      @ if context = [] then [] else [ ("context", Json.Obj context) ])
  in
  let fields =
    (match id with Some id -> [ ("id", id) ] | None -> [])
    @ [ ("ok", Json.Bool false); ("error", error) ]
  in
  Json.to_string ~pretty:false (Json.Obj fields) ^ "\n"

let is_http_get line =
  String.length line >= 4 && String.sub line 0 4 = "GET "

let http_metrics_response body =
  Printf.sprintf
    "HTTP/1.0 200 OK\r\n\
     Content-Type: text/plain; version=0.0.4\r\n\
     Content-Length: %d\r\n\
     Connection: close\r\n\
     \r\n\
     %s"
    (String.length body) body

let http_not_found_response =
  "HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"

module Framing = struct
  type t = {
    buf : Buffer.t;
    max_frame : int;
    mutable poisoned : bool;
  }

  let default_max_frame = 1 lsl 20

  let create ?(max_frame = default_max_frame) () =
    if max_frame < 1 then invalid_arg "Framing.create: max_frame must be >= 1";
    { buf = Buffer.create 256; max_frame; poisoned = false }

  let oversized t =
    t.poisoned <- true;
    Error
      (Mrsl.Error.make Mrsl.Error.Input ~code:"protocol.oversized"
         ~context:[ ("max_frame", string_of_int t.max_frame) ]
         "frame exceeds the maximum length")

  let strip_cr s =
    let n = String.length s in
    if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s

  let feed t chunk =
    if t.poisoned then oversized t
    else begin
      Buffer.add_string t.buf chunk;
      let data = Buffer.contents t.buf in
      let lines = ref [] in
      let start = ref 0 in
      (try
         while true do
           let nl = String.index_from data !start '\n' in
           lines := strip_cr (String.sub data !start (nl - !start)) :: !lines;
           start := nl + 1
         done
       with Not_found -> ());
      Buffer.clear t.buf;
      Buffer.add_substring t.buf data !start (String.length data - !start);
      if Buffer.length t.buf > t.max_frame then oversized t
      else if
        List.exists (fun l -> String.length l > t.max_frame) !lines
      then oversized t
      else Ok (List.rev !lines)
    end

  let pending t = Buffer.length t.buf
end
