//! The streaming run-length codec of the compressed checkpoint container
//! against its batch oracle: [`RleWriter`] emits exactly the bytes of
//! `rle_compress` however its input is split into writes; [`RleReader`]
//! decodes what `rle_decompress` decodes and rejects what it rejects,
//! however it is read; and `Checkpoint::from_bytes`, which parses
//! through the decoder, accepts and rejects exactly what
//! `rle_decompress` followed by `Checkpoint::read_from` does, on seeded
//! mutations of real containers.

use std::f64::consts::PI;
use std::io::{self, BufReader, Read, Write};
use std::path::PathBuf;

use sem_linalg::rng::SplitMix64;
use sem_mesh::generators::box2d;
use sem_ns::checkpoint::rle::{rle_compress, rle_decompress, RleReader, RleWriter};
use sem_ns::checkpoint::{Checkpoint, CODEC_RLE, Z_MAGIC, Z_VERSION};
use sem_ns::{ConvectionScheme, NsConfig, NsSolver};
use sem_ops::SemOps;

/// Encode `raw` through an [`RleWriter`], one write of `next_len()`
/// bytes (clamped to what is left) at a time.
fn encode(raw: &[u8], mut next_len: impl FnMut() -> usize) -> Vec<u8> {
    let mut enc = RleWriter::new(Vec::new());
    let mut rest = raw;
    while !rest.is_empty() {
        let k = next_len().clamp(1, rest.len());
        enc.write_all(&rest[..k]).unwrap();
        rest = &rest[k..];
    }
    enc.finish().unwrap()
}

/// The encoder's bytes equal the oracle's with the input in one write,
/// one byte per write, and seeded random write sizes.
fn assert_encodes_like_the_oracle(raw: &[u8], rng: &mut SplitMix64) {
    let want = rle_compress(raw);
    assert!(
        encode(raw, || raw.len()) == want,
        "one write of {} bytes",
        raw.len()
    );
    assert!(encode(raw, || 1) == want, "{} one-byte writes", raw.len());
    for _ in 0..4 {
        let max = rng.range(2, 600);
        assert!(
            encode(raw, || rng.range(1, max)) == want,
            "{} bytes in writes of 1..{max}",
            raw.len()
        );
    }
}

/// Decode `enc` through an [`RleReader`] over a reader buffer of `cap`
/// bytes, in reads of seeded random sizes, to the end of the stream.
fn decode(enc: &[u8], raw_len: usize, cap: usize, rng: &mut SplitMix64) -> io::Result<Vec<u8>> {
    let mut dec = RleReader::new(BufReader::with_capacity(cap, enc), raw_len as u64);
    let mut out = Vec::new();
    let mut buf = [0u8; 600];
    loop {
        let want = rng.range(1, buf.len());
        match dec.read(&mut buf[..want])? {
            0 => return Ok(out),
            k => out.extend_from_slice(&buf[..k]),
        }
    }
}

/// Reader buffer sizes: every control, literal and repeat byte lands on
/// a buffer boundary somewhere.
const CAPS: [usize; 7] = [1, 2, 3, 5, 64, 129, 8192];

/// The decoder gives the oracle's verdict on `(enc, raw_len)`, and on
/// success its bytes, for every reader buffer size.
fn assert_decodes_like_the_oracle(enc: &[u8], raw_len: usize, rng: &mut SplitMix64) {
    let want = rle_decompress(enc, raw_len);
    for cap in CAPS {
        let got = decode(enc, raw_len, cap, rng);
        match (&want, &got) {
            (Ok(w), Ok(g)) => assert!(w == g, "cap {cap}: decoded bytes differ"),
            (Err(_), Err(e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "cap {cap}"),
            _ => panic!(
                "cap {cap}, {} encoded bytes, raw length {raw_len}: oracle {:?}, decoder {:?}",
                enc.len(),
                want.as_ref().map(Vec::len),
                got.as_ref().map(Vec::len)
            ),
        }
    }
}

/// Seeded byte strings: mixes of runs and noise, plain noise, and noise
/// over a two-letter alphabet (short runs everywhere).
fn random_inputs(rng: &mut SplitMix64) -> Vec<Vec<u8>> {
    let mut cases = Vec::new();
    for _ in 0..12 {
        let mut v = Vec::new();
        for _ in 0..rng.range(1, 48) {
            let r = rng.next_u64();
            let byte = (r & 0xff) as u8;
            let len = ((r >> 8) % 300) as usize;
            if r & (1 << 63) != 0 {
                v.extend(std::iter::repeat_n(byte, len));
            } else {
                v.extend((0..len).map(|k| byte.wrapping_add(k as u8)));
            }
        }
        cases.push(v);
    }
    for len in [1, 2, 3, 1000, 4099] {
        cases.push((0..len).map(|_| rng.next_u64() as u8).collect());
        cases.push((0..len).map(|_| (rng.next_u64() & 1) as u8).collect());
    }
    cases
}

/// Literal bytes: no two neighbours equal.
fn literal(len: usize, first: u8) -> Vec<u8> {
    (0..len).map(|k| first.wrapping_add(k as u8)).collect()
}

/// Buffers of one byte, runs at and around every length boundary
/// between literals and between other runs, and literal stretches at
/// and around the 128-byte chunk.
fn structured_inputs() -> Vec<Vec<u8>> {
    let mut cases = vec![Vec::new()];
    for len in (1..=400).chain([1000, 4096, 4097]) {
        cases.push(vec![0; len]);
        cases.push(vec![0xab; len]);
    }
    for run in [1, 2, 3, 129, 130, 131, 260] {
        let mut v = literal(7, 1);
        v.extend(vec![0; run]);
        v.extend(literal(5, 1));
        cases.push(v);
        let mut v = vec![9; run];
        v.extend(vec![0; run]);
        v.extend(vec![9; 2]);
        cases.push(v);
    }
    for lit in [127, 128, 129, 255, 256, 257] {
        cases.push(literal(lit, 3));
        let mut v = vec![0; 5];
        v.extend(literal(lit, 3));
        v.extend(vec![0; 5]);
        cases.push(v);
        let mut v = vec![7; 131];
        v.extend(literal(lit, 3));
        cases.push(v);
    }
    cases
}

fn taylor_green(order: usize, cfg: NsConfig) -> NsSolver {
    let l = 2.0 * PI;
    let ops = SemOps::new(box2d(3, 3, [0.0, l], [0.0, l], true, true), order);
    let mut s = NsSolver::new(
        ops,
        NsConfig {
            dt: 1e-2,
            nu: 0.05,
            pressure_lmax: 6,
            ..cfg
        },
    );
    s.set_velocity(|x, y, _| [x.sin() * y.cos(), -x.cos() * y.sin(), 0.0]);
    s
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name)
}

/// Real checkpoints: the two v1 fixtures and two stepped solvers of the
/// shear-service shape (OIFS, a dye, a projection basis filling up),
/// one with a quiescent second species whose zeros make long runs.
fn real_checkpoints() -> Vec<Checkpoint> {
    let mut out: Vec<Checkpoint> = [
        "v1_ext_bdf3_temp_two_species.ckpt",
        "v1_oifs_bdf2_one_species.ckpt",
    ]
    .into_iter()
    .map(|name| Checkpoint::load(fixture(name)).unwrap())
    .collect();
    for quiet in [false, true] {
        let mut s = taylor_green(
            5,
            NsConfig {
                convection: ConvectionScheme::Oifs,
                ..Default::default()
            },
        );
        s.add_scalar("dye", 1e-3, |x, y, _| x.sin() * y.cos());
        if quiet {
            s.add_scalar("quiet", 1e-3, |_, _, _| 0.0);
        }
        for _ in 0..4 {
            s.step().unwrap();
        }
        out.push(s.checkpoint());
    }
    out
}

fn plain_bytes(ck: &Checkpoint) -> Vec<u8> {
    let mut raw = Vec::new();
    ck.write_to(&mut raw).unwrap();
    raw
}

fn compressed_bytes(ck: &Checkpoint) -> Vec<u8> {
    let mut z = Vec::new();
    ck.write_compressed_to(&mut z).unwrap();
    z
}

/// The batch path: sniff the magic, check the container header, decode
/// the whole payload with `rle_decompress`, then parse the image.
fn batch_from_bytes(bytes: &[u8]) -> io::Result<Checkpoint> {
    if bytes.get(..8) != Some(&Z_MAGIC[..]) {
        return Checkpoint::read_from(&mut &bytes[..]);
    }
    let field = |at: usize, len: usize| {
        bytes
            .get(at..at + len)
            .ok_or_else(|| io::Error::from(io::ErrorKind::UnexpectedEof))
    };
    let version = u32::from_le_bytes(field(8, 4)?.try_into().unwrap());
    let codec = u32::from_le_bytes(field(12, 4)?.try_into().unwrap());
    let raw_len = u64::from_le_bytes(field(16, 8)?.try_into().unwrap());
    let enc = &bytes[24..];
    // The header's checks (1 << 40 is the format's cap on any length).
    if version != Z_VERSION || codec != CODEC_RLE || raw_len > 1 << 40 {
        return Err(io::Error::from(io::ErrorKind::InvalidData));
    }
    // A stream decodes to at most 65 bytes per encoded byte (a repeat of
    // 130 from two), so past that `rle_decompress` ends short; it would
    // reserve `raw_len` bytes first.
    if raw_len > 65 * enc.len() as u64 {
        return Err(io::Error::from(io::ErrorKind::InvalidData));
    }
    let raw = rle_decompress(enc, raw_len as usize)?;
    Checkpoint::read_from(&mut raw.as_slice())
}

#[test]
fn the_encoder_emits_the_batch_encoding_however_its_input_is_split() {
    let mut rng = SplitMix64::new(0x5eed_0001);
    for raw in random_inputs(&mut rng).iter().chain(&structured_inputs()) {
        assert_encodes_like_the_oracle(raw, &mut rng);
    }
}

#[test]
fn the_encoder_emits_the_batch_encoding_of_real_checkpoints() {
    let mut rng = SplitMix64::new(0x5eed_0002);
    for ck in real_checkpoints() {
        let raw = plain_bytes(&ck);
        assert_encodes_like_the_oracle(&raw, &mut rng);
        // The container is the header plus that encoding.
        let z = compressed_bytes(&ck);
        assert_eq!(&z[..8], &Z_MAGIC);
        assert_eq!(
            u64::from_le_bytes(z[16..24].try_into().unwrap()),
            raw.len() as u64
        );
        assert!(z[24..] == rle_compress(&raw)[..]);
    }
}

#[test]
fn the_decoder_reads_back_every_input_however_it_is_read() {
    let mut rng = SplitMix64::new(0x5eed_0003);
    let real: Vec<Vec<u8>> = real_checkpoints().iter().map(plain_bytes).collect();
    let inputs = random_inputs(&mut rng);
    for raw in inputs.iter().chain(&structured_inputs()).chain(&real) {
        assert_decodes_like_the_oracle(&rle_compress(raw), raw.len(), &mut rng);
    }
}

#[test]
fn the_decoder_rejects_what_the_batch_decoder_rejects() {
    let mut rng = SplitMix64::new(0x5eed_0004);
    let mut raw = literal(300, 1);
    raw.extend(vec![0; 200]);
    raw.extend(literal(40, 9));
    let enc = rle_compress(&raw);
    // Every truncation, and trailing bytes.
    for cut in 0..enc.len() {
        assert_decodes_like_the_oracle(&enc[..cut], raw.len(), &mut rng);
    }
    for extra in [&[0u8][..], &[0x80], &[0x80, 5], &[2, 1, 2, 3]] {
        let mut long = enc.clone();
        long.extend_from_slice(extra);
        assert_decodes_like_the_oracle(&long, raw.len(), &mut rng);
    }
    // Wrong declared lengths, and flipped bytes.
    for len in [
        0,
        1,
        raw.len() - 130,
        raw.len() - 1,
        raw.len() + 1,
        raw.len() + 200,
    ] {
        assert_decodes_like_the_oracle(&enc, len, &mut rng);
    }
    for _ in 0..200 {
        let mut bad = enc.clone();
        let at = rng.index(bad.len());
        bad[at] ^= rng.range(1, 256) as u8;
        assert_decodes_like_the_oracle(&bad, raw.len(), &mut rng);
    }
}

/// `from_bytes` against the batch path on one mutated container: the
/// same verdict, and on success the same checkpoint bytes.
fn assert_parses_like_the_batch_path(bytes: &[u8], what: &str) {
    let got = Checkpoint::from_bytes(bytes);
    let want = batch_from_bytes(bytes);
    match (&want, &got) {
        (Ok(w), Ok(g)) => assert!(
            plain_bytes(w) == plain_bytes(g),
            "{what}: parsed differently"
        ),
        (Err(_), Err(_)) => {}
        _ => panic!(
            "{what}: batch path {:?}, streaming path {:?}",
            want.as_ref().map(|c| c.step_index),
            got.as_ref().map(|c| c.step_index)
        ),
    }
}

#[test]
fn streaming_loads_accept_and_reject_what_the_batch_path_does() {
    let mut rng = SplitMix64::new(0x5eed_0005);
    for ck in real_checkpoints() {
        let z = compressed_bytes(&ck);
        assert!(plain_bytes(&Checkpoint::from_bytes(&z).unwrap()) == plain_bytes(&ck));
        let declared = u64::from_le_bytes(z[16..24].try_into().unwrap());
        for _ in 0..150 {
            let mut bad = z.clone();
            for _ in 0..rng.range(1, 4) {
                let at = rng.index(bad.len());
                bad[at] ^= rng.range(1, 256) as u8;
            }
            assert_parses_like_the_batch_path(&bad, "flipped bytes");
        }
        for _ in 0..60 {
            let cut = rng.index(z.len());
            assert_parses_like_the_batch_path(&z[..cut], &format!("cut at {cut}"));
        }
        for _ in 0..40 {
            let mut long = z.clone();
            long.extend((0..rng.range(1, 300)).map(|_| rng.next_u64() as u8));
            assert_parses_like_the_batch_path(&long, "appended bytes");
        }
        let deltas = [-1000, -130, -3, -1, 1, 3, 130, 1000];
        for len in deltas
            .iter()
            .map(|&d| declared.wrapping_add_signed(d))
            .chain([0, 2 * declared])
        {
            let mut wrong = z.clone();
            wrong[16..24].copy_from_slice(&len.to_le_bytes());
            assert_parses_like_the_batch_path(&wrong, &format!("raw length {len}"));
        }
    }
}

/// A checkpoint whose image the header declares longer holds bytes past
/// its end; those must still decode, to exactly the declared length.
#[test]
fn bytes_past_the_checkpoint_must_decode_to_the_declared_end() {
    let ck = real_checkpoints().swap_remove(1);
    let mut raw = plain_bytes(&ck);
    raw.extend(vec![0; 500]);
    let mut z = Z_MAGIC.to_vec();
    z.extend_from_slice(&Z_VERSION.to_le_bytes());
    z.extend_from_slice(&CODEC_RLE.to_le_bytes());
    z.extend_from_slice(&(raw.len() as u64).to_le_bytes());
    z.extend(rle_compress(&raw));
    assert!(plain_bytes(&Checkpoint::from_bytes(&z).unwrap()) == plain_bytes(&ck));
    // Cut inside the trailing zeros: the checkpoint parses, the stream
    // ends short.
    let err = Checkpoint::from_bytes(&z[..z.len() - 1]).unwrap_err();
    assert!(err.to_string().contains("truncated"), "{err}");
    assert_parses_like_the_batch_path(&z[..z.len() - 1], "cut in the tail");
}
