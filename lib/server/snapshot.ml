(** Snapshot files: see the interface for the layout. *)

open Guarded_core
module Incr = Guarded_incr.Incr

exception Corrupt of string

let corrupt fmt = Fmt.kstr (fun s -> raise (Corrupt s)) fmt

let magic = "GRDSNAP2"

(* ------------------------------------------------------------------ *)
(* Body codec                                                          *)

let write_stratum buf (sd : Incr.stratum_dump) = Codec.write_list buf Codec.write_atom sd.sd_new

let read_stratum src : Incr.stratum_dump = { sd_new = Codec.read_list src Codec.read_atom }

let encode_body sigma (d : Incr.dump) =
  let buf = Buffer.create 4096 in
  Codec.write_theory buf sigma;
  Codec.write_database buf d.d_edb;
  Codec.write_list buf write_stratum d.d_strata;
  Buffer.contents buf

let decode_body body =
  let src = Codec.source_of_string body in
  let sigma = Codec.read_theory src in
  let d_edb = Codec.read_database src in
  let d_strata = Codec.read_list src read_stratum in
  Codec.expect_end src;
  (sigma, { Incr.d_edb; d_strata })

(* ------------------------------------------------------------------ *)
(* Whole images: magic, length, body, checksum                         *)

(* One encoding for every transport: the file on disk and the [SNAP]
   wire payload are byte-identical, so there is exactly one validation
   chain for both. *)
let encode sigma dump =
  let body = encode_body sigma dump in
  let buf = Buffer.create (String.length body + 32) in
  Buffer.add_string buf magic;
  Codec.write_varint buf (String.length body);
  Buffer.add_string buf body;
  Codec.write_int64 buf (Codec.fnv1a body);
  Buffer.contents buf

let decode ?(what = "<snapshot>") raw =
  let n = String.length raw in
  if n < String.length magic then corrupt "%s: truncated (no magic)" what;
  let got = String.sub raw 0 (String.length magic) in
  if not (String.equal got magic) then
    if String.length got >= 7 && String.equal (String.sub got 0 7) (String.sub magic 0 7) then
      corrupt "%s: unsupported snapshot version %C (this build reads %C)" what got.[7] magic.[7]
    else corrupt "%s: not a snapshot (bad magic)" what;
  (* Skip the verified magic, then frame the body by its length. *)
  let src_skip = String.length magic in
  let raw' = String.sub raw src_skip (n - src_skip) in
  let src = Codec.source_of_string raw' in
  let body_len = try Codec.read_varint src with Codec.Corrupt m -> corrupt "%s: %s" what m in
  let header = Codec.pos src in
  if body_len < 0 || String.length raw' < header + body_len + 8 then
    corrupt "%s: truncated (body wants %d bytes)" what body_len;
  if String.length raw' > header + body_len + 8 then
    corrupt "%s: trailing garbage after checksum" what;
  let body = String.sub raw' header body_len in
  let csrc = Codec.source_of_string (String.sub raw' (header + body_len) 8) in
  let stored = Codec.read_int64 csrc in
  let actual = Codec.fnv1a body in
  if not (Int64.equal stored actual) then
    corrupt "%s: checksum mismatch (stored %Lx, body %Lx)" what stored actual;
  try decode_body body with Codec.Corrupt m -> corrupt "%s: %s" what m

let theory_equal a b =
  let sort t = List.sort Rule.compare (Theory.rules t) in
  List.equal Rule.equal (sort a) (sort b)

let restore ?pool ?(what = "<snapshot>") raw =
  let sigma, dump = decode ~what raw in
  let incr =
    try Incr.restore ?pool sigma dump with Invalid_argument m -> corrupt "%s: %s" what m
  in
  (sigma, incr)

let restore_for ?pool ?(what = "<snapshot>") raw sigma =
  let stored, incr = restore ?pool ~what raw in
  if not (theory_equal stored sigma) then
    corrupt "%s: snapshot is of a different program (%d rules vs %d served)" what
      (Theory.size stored) (Theory.size sigma);
  incr

(* ------------------------------------------------------------------ *)
(* Files                                                               *)

let save ~path sigma dump =
  let buf = encode sigma dump in
  (* Write-then-rename so a crash mid-save leaves the old file. *)
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir (Filename.basename path) ".tmp" in
  let cleanup () = try Sys.remove tmp with Sys_error _ -> () in
  (try
     let oc = open_out_bin tmp in
     Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc buf)
   with e ->
     cleanup ();
     raise e);
  try Sys.rename tmp path
  with e ->
    cleanup ();
    raise e

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let load ?pool path = restore ?pool ~what:path (read_file path)
let load_for ?pool path sigma = restore_for ?pool ~what:path (read_file path) sigma
