(* A blocking WP-A client that, unlike the load harness's client, keeps the
   record parcels so the answer can be checked against the oracle. *)

module Message = Hyperq_wire.Message
module Auth = Hyperq_wire.Auth
module Frame_io = Hyperq_net.Frame_io

type t = { fd : Unix.file_descr; mutable buf : string }

type reply = {
  columns : Message.column list;
  records : string list;  (** WP-A record payloads, in order *)
  activity_count : int;
}

(* A statement's outcome as the client sees it: the answer, or the class
   of failure (wire failure code, or -1 for a broken byte stream). *)
type outcome = Answer of reply | Failed of int * string

let timeout_s = 170.

let send t msg =
  match Frame_io.write_all t.fd ~timeout_s (Message.encode_frame msg) with
  | Frame_io.Written -> Ok ()
  | Frame_io.Write_timed_out -> Error "write timeout"
  | Frame_io.Write_closed m -> Error ("write failed: " ^ m)

let rec recv t =
  match Message.decode_frame t.buf 0 with
  | exception Hyperq_sqlvalue.Sql_error.Error e ->
      Error (Hyperq_sqlvalue.Sql_error.to_string e)
  | Some (msg, used) ->
      t.buf <- String.sub t.buf used (String.length t.buf - used);
      Ok msg
  | None -> (
      match Frame_io.read_chunk t.fd ~timeout_s with
      | Frame_io.Data bytes ->
          t.buf <- t.buf ^ bytes;
          recv t
      | Frame_io.Eof -> Error "connection closed by server"
      | Frame_io.Timed_out -> Error "read timeout"
      | Frame_io.Interrupted -> Error "interrupted")

let ( let* ) = Result.bind

let connect ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.setsockopt fd Unix.TCP_NODELAY true
  with
  | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      Error (Unix.error_message e)
  | () -> (
      let t = { fd; buf = "" } in
      let logon =
        let* () = send t (Message.Logon_request { username = "DBC" }) in
        let* challenge = recv t in
        match challenge with
        | Message.Logon_challenge { salt } -> (
            let proof = Auth.proof ~salt ~password:"DBC" in
            let* () = send t (Message.Logon_auth { username = "DBC"; proof }) in
            let* resp = recv t in
            match resp with
            | Message.Logon_response { success = true; _ } -> Ok t
            | m -> Error ("logon refused: " ^ Message.to_string m))
        | m -> Error ("unexpected challenge: " ^ Message.to_string m)
      in
      match logon with
      | Ok t -> Ok t
      | Error e ->
          Unix.close fd;
          Error e)

let run t sql =
  match send t (Message.Run_request { sql }) with
  | Error e -> Failed (-1, e)
  | Ok () ->
      let rec collect columns acc =
        match recv t with
        | Error e -> Failed (-1, e)
        | Ok (Message.Response_header { columns }) -> collect columns acc
        | Ok (Message.Records { payload }) ->
            collect columns (List.rev_append payload acc)
        | Ok (Message.Success { activity_count; _ }) ->
            Answer { columns; records = List.rev acc; activity_count }
        | Ok (Message.Failure { code; message }) -> Failed (code, message)
        | Ok m -> Failed (-1, "unexpected parcel: " ^ Message.to_string m)
      in
      collect [] []

let close t =
  ignore (send t Message.Logoff);
  (try Unix.close t.fd with Unix.Unix_error _ -> ())
