(* Pre-decoded executable images: the image and its decoded text. *)

type t = { image : Linker.Image.t; insns : Isa.Insn.t array }

let image t = t.image

let of_image (image : Linker.Image.t) =
  match Isa.Decode.of_bytes_loc image.Linker.Image.text with
  | Ok insns -> Ok { image; insns }
  | Error (off, e) -> Error (image.Linker.Image.text_base + off, e)
