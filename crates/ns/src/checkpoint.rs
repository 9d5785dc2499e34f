//! On-disk checkpoint/restart for the NS time loop (`sem-guard`).
//!
//! A [`Checkpoint`] captures everything `NsSolver::step` evolves —
//! current fields, the multistep ring of past time levels ([`Level`])
//! that every transported field shares, the successive-RHS projection
//! basis (with its `E`-images, so the restarted pressure solves see the
//! same initial guesses) — in a versioned little-endian binary format
//! built on `std::io` alone. The same value is the guarded step's
//! in-memory rollback snapshot. A run resumed from a checkpoint is
//! bitwise-identical to the uninterrupted run, at any `TERASEM_THREADS`
//! setting.
//!
//! The v1 file stores the ring field by field (velocity, level times,
//! velocity convection, temperature, its convection, then per species
//! its values and convection); a file whose sections disagree on the
//! number of levels is rejected as `InvalidData`.
//!
//! The solver configuration, boundary/forcing closures, and the
//! transient recovery-ladder state (per-step Jacobi fallback, pending
//! Δt restoration) are *not* checkpointed: rebuild the solver the same
//! way, then call `NsSolver::restore_checkpoint`.
//!
//! Writes and loads stream: a file is written or read in one pass over
//! the state, float arrays in bulk through a stack buffer, through one
//! large file buffer. The compressed container runs the same pass
//! through the [`rle`] codec's streaming encoder or decoder, so neither
//! direction holds a whole raw or encoded image.

pub mod rle;

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::ops::Range;
use std::path::Path;

use rle::{RleReader, RleWriter};

/// File magic ("terasem checkpoint").
pub const MAGIC: [u8; 8] = *b"TERASEMC";
/// Format version.
pub const VERSION: u32 = 1;

/// Magic of the *compressed* checkpoint container ("terasem zipped").
/// A compressed file is `Z_MAGIC · Z_VERSION · codec id · raw length ·
/// encoded payload`, where the decoded payload is byte-for-byte a plain
/// [`MAGIC`] checkpoint. Both formats share the `ckpt_NNNNNNNN.ckpt`
/// naming, so retention pruning and consistent-generation scans treat
/// them identically; [`Checkpoint::load`] sniffs the magic.
pub const Z_MAGIC: [u8; 8] = *b"TERASEMZ";
/// Compressed-container format version.
pub const Z_VERSION: u32 = 1;
/// Codec id 1: the PackBits-style run-length encoding of [`rle`].
pub const CODEC_RLE: u32 = 1;

/// Capacity of a checkpoint file's buffer: a multi-megabyte image takes
/// a few dozen system calls.
const FILE_BUF: usize = 256 << 10;
/// Floats converted per bulk read or write (a 4 KiB stack buffer).
const F64_CHUNK: usize = 512;

/// A registered passive species: its identity and current values (its
/// past values live in the shared [`Level`] ring).
#[derive(Clone, Debug, PartialEq)]
pub struct Species {
    /// Display name.
    pub name: String,
    /// Diffusivity.
    pub kappa: f64,
    /// Current nodal values.
    pub values: Vec<f64>,
}

/// One past time level of every transported field — the multistep
/// ring's element. Fields are ordered u, v[, w][, T], species….
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Level {
    /// Simulation time of the level.
    pub time: f64,
    /// Every transported field's values at `time`.
    pub values: Vec<Vec<f64>>,
    /// `(u·∇)φ` at `time`, per field: stored under EXT only, empty under
    /// OIFS or no convection. A field's convective levels are a prefix of
    /// the ring.
    pub conv: Vec<Vec<f64>>,
}

/// A transported field's place in a [`Level`], i.e. the ring's field
/// order: the velocity components, then the temperature when
/// Boussinesq-coupled, then the species in registration order.
#[derive(Clone, Copy)]
pub(crate) enum Slot {
    Vel(usize),
    Temp,
    Species(usize),
}

impl Slot {
    /// The slot of field `f` with `dim` velocity components, with or
    /// without a temperature.
    pub(crate) fn of(f: usize, dim: usize, temp: bool) -> Slot {
        match f.checked_sub(dim) {
            None => Slot::Vel(f),
            Some(0) if temp => Slot::Temp,
            Some(s) => Slot::Species(s - temp as usize),
        }
    }
}

/// A complete, self-describing snapshot of the time-loop state.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Spatial dimension (consistency check on restore).
    pub dim: u32,
    /// Velocity-grid dof count (consistency check on restore).
    pub n: u64,
    /// Pressure-grid dof count (consistency check on restore).
    pub np: u64,
    /// Timestep size at capture (restored into `cfg.dt`).
    pub dt: f64,
    /// Simulation time.
    pub time: f64,
    /// Steps taken.
    pub step_index: u64,
    /// Velocity components.
    pub vel: Vec<Vec<f64>>,
    /// Pressure.
    pub pressure: Vec<f64>,
    /// Temperature, when Boussinesq coupling was active.
    pub temp: Option<Vec<f64>>,
    /// Passive species, in registration order.
    pub scalars: Vec<Species>,
    /// The multistep ring (front = most recent).
    pub levels: Vec<Level>,
    /// Successive-RHS projection basis: `(x, Ex)` pairs, oldest first.
    pub projection: Vec<(Vec<f64>, Vec<f64>)>,
}

fn w_u32(w: &mut dyn Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn w_u64(w: &mut dyn Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn w_f64(w: &mut dyn Write, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn w_f64s(w: &mut dyn Write, v: &[f64]) -> io::Result<()> {
    w_u64(w, v.len() as u64)?;
    let mut buf = [0u8; 8 * F64_CHUNK];
    for chunk in v.chunks(F64_CHUNK) {
        for (b, x) in buf.chunks_exact_mut(8).zip(chunk) {
            b.copy_from_slice(&x.to_le_bytes());
        }
        w.write_all(&buf[..8 * chunk.len()])?;
    }
    Ok(())
}

fn w_f64s2(w: &mut dyn Write, v: &[Vec<f64>]) -> io::Result<()> {
    w_u64(w, v.len() as u64)?;
    for x in v {
        w_f64s(w, x)?;
    }
    Ok(())
}

fn w_str(w: &mut dyn Write, s: &str) -> io::Result<()> {
    w_u64(w, s.len() as u64)?;
    w.write_all(s.as_bytes())
}

fn r_u32(r: &mut dyn Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn r_u64(r: &mut dyn Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn r_f64(r: &mut dyn Read) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

/// Cap on any one serialized length field: catches corrupted headers
/// before they turn into huge allocations.
const MAX_LEN: u64 = 1 << 40;

fn r_len(r: &mut dyn Read) -> io::Result<usize> {
    let v = r_u64(r)?;
    if v > MAX_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("checkpoint length field {v} out of range"),
        ));
    }
    Ok(v as usize)
}

fn r_f64s(r: &mut dyn Read) -> io::Result<Vec<f64>> {
    let len = r_len(r)?;
    let mut v = Vec::with_capacity(len.min(1 << 20));
    let mut buf = [0u8; 8 * F64_CHUNK];
    while v.len() < len {
        let bytes = &mut buf[..8 * (len - v.len()).min(F64_CHUNK)];
        r.read_exact(bytes)?;
        v.extend(
            bytes
                .chunks_exact(8)
                .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk"))),
        );
    }
    Ok(v)
}

fn r_f64s2(r: &mut dyn Read) -> io::Result<Vec<Vec<f64>>> {
    let len = r_len(r)?;
    let mut v = Vec::with_capacity(len.min(1 << 10));
    for _ in 0..len {
        v.push(r_f64s(r)?);
    }
    Ok(v)
}

fn r_f64s3(r: &mut dyn Read) -> io::Result<Vec<Vec<Vec<f64>>>> {
    let len = r_len(r)?;
    let mut v = Vec::with_capacity(len.min(1 << 10));
    for _ in 0..len {
        v.push(r_f64s2(r)?);
    }
    Ok(v)
}

fn r_str(r: &mut dyn Read) -> io::Result<String> {
    let len = r_len(r)?;
    // The buffer grows with the bytes present, not with the length field.
    let mut b = Vec::new();
    (&mut *r).take(len as u64).read_to_end(&mut b)?;
    if b.len() != len {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    String::from_utf8(b)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "checkpoint name not UTF-8"))
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Write one v1 history section: the values (or, with `conv`, the
/// convective prefix) of the fields `fs` at each ring level — nested
/// per level for the velocity group (the ring's first fields), one
/// vector per level for a scalar. An empty `fs` (no temperature) writes
/// an empty section.
fn w_hist(w: &mut dyn Write, levels: &[Level], fs: Range<usize>, conv: bool) -> io::Result<()> {
    let mut parts = Vec::new();
    for level in levels {
        let fields = if conv { &level.conv } else { &level.values };
        let part = &fields[fs.clone()];
        if part.is_empty() || part.iter().any(Vec::is_empty) {
            break;
        }
        parts.push(part);
    }
    w_u64(w, parts.len() as u64)?;
    for part in parts {
        if fs.start == 0 {
            w_f64s2(w, part)?;
        } else {
            w_f64s(w, &part[0])?;
        }
    }
    Ok(())
}

/// One field group's v1 history section: per level, the group's fields.
type Section = Vec<Vec<Vec<f64>>>;

/// Transpose the v1 field-major history sections — per field group
/// (velocity, temperature, each species): its width, value levels and
/// convective levels — into the level-major ring. Every group must
/// hold one value entry per level time and at most that many
/// convective entries, each `width` fields wide.
fn ring_from_sections(
    times: Vec<f64>,
    groups: Vec<(usize, Section, Section)>,
) -> io::Result<Vec<Level>> {
    let mut levels: Vec<Level> = times
        .into_iter()
        .map(|time| Level {
            time,
            ..Level::default()
        })
        .collect();
    for (width, values, conv) in groups {
        let agree = values.len() == levels.len()
            && conv.len() <= levels.len()
            && values.iter().chain(&conv).all(|lv| lv.len() == width);
        if !agree {
            return Err(invalid(
                "checkpoint history sections disagree on the number of levels",
            ));
        }
        let mut conv = conv.into_iter();
        for (level, vals) in levels.iter_mut().zip(values) {
            level.values.extend(vals);
            level
                .conv
                .extend(conv.next().unwrap_or_else(|| vec![Vec::new(); width]));
        }
    }
    Ok(levels)
}

impl Checkpoint {
    /// Serialize to a writer (header + little-endian payload).
    pub fn write_to(&self, w: &mut dyn Write) -> io::Result<()> {
        w.write_all(&MAGIC)?;
        w_u32(w, VERSION)?;
        w_u32(w, self.dim)?;
        w_u64(w, self.n)?;
        w_u64(w, self.np)?;
        w_f64(w, self.dt)?;
        w_f64(w, self.time)?;
        w_u64(w, self.step_index)?;
        w_f64s2(w, &self.vel)?;
        w_f64s(w, &self.pressure)?;
        w_u32(w, self.temp.is_some() as u32)?;
        if let Some(t) = &self.temp {
            w_f64s(w, t)?;
        }
        // v1 stores the ring field-major, one section per `Slot` group:
        // velocity, times, velocity convection, temperature, its
        // convection, then each species. `d..t` is the temperature's
        // ring range (empty without one); species `s` is at `t + s`.
        let d = self.vel.len();
        let t = d + self.temp.is_some() as usize;
        w_hist(w, &self.levels, 0..d, false)?;
        let times: Vec<f64> = self.levels.iter().map(|l| l.time).collect();
        w_f64s(w, &times)?;
        w_hist(w, &self.levels, 0..d, true)?;
        w_hist(w, &self.levels, d..t, false)?;
        w_hist(w, &self.levels, d..t, true)?;
        w_u64(w, self.scalars.len() as u64)?;
        for (s, sc) in self.scalars.iter().enumerate() {
            w_str(w, &sc.name)?;
            w_f64(w, sc.kappa)?;
            w_f64s(w, &sc.values)?;
            w_hist(w, &self.levels, t + s..t + s + 1, false)?;
            w_hist(w, &self.levels, t + s..t + s + 1, true)?;
        }
        w_u64(w, self.projection.len() as u64)?;
        for (x, ex) in &self.projection {
            w_f64s(w, x)?;
            w_f64s(w, ex)?;
        }
        Ok(())
    }

    /// Deserialize from a reader, validating magic and version.
    pub fn read_from(r: &mut dyn Read) -> io::Result<Checkpoint> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a terasem checkpoint (bad magic)",
            ));
        }
        let version = r_u32(r)?;
        if version != VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unsupported checkpoint version {version} (expected {VERSION})"),
            ));
        }
        let dim = r_u32(r)?;
        let n = r_u64(r)?;
        let np = r_u64(r)?;
        let dt = r_f64(r)?;
        let time = r_f64(r)?;
        let step_index = r_u64(r)?;
        let vel = r_f64s2(r)?;
        let pressure = r_f64s(r)?;
        let temp = if r_u32(r)? != 0 {
            Some(r_f64s(r)?)
        } else {
            None
        };
        let vel_hist = r_f64s3(r)?;
        let times = r_f64s(r)?;
        let conv_hist = r_f64s3(r)?;
        let (temp_hist, temp_conv_hist) = (r_f64s2(r)?, r_f64s2(r)?);
        let mut groups = vec![(vel.len(), vel_hist, conv_hist)];
        let one = |h: Vec<Vec<f64>>| h.into_iter().map(|v| vec![v]).collect();
        if temp.is_some() {
            groups.push((1, one(temp_hist), one(temp_conv_hist)));
        } else if !temp_hist.is_empty() || !temp_conv_hist.is_empty() {
            return Err(invalid(
                "checkpoint has temperature history but no temperature",
            ));
        }
        let nsc = r_len(r)?;
        let mut scalars = Vec::with_capacity(nsc.min(1 << 10));
        for _ in 0..nsc {
            scalars.push(Species {
                name: r_str(r)?,
                kappa: r_f64(r)?,
                values: r_f64s(r)?,
            });
            groups.push((1, one(r_f64s2(r)?), one(r_f64s2(r)?)));
        }
        let nproj = r_len(r)?;
        let mut projection = Vec::with_capacity(nproj.min(1 << 10));
        for _ in 0..nproj {
            let x = r_f64s(r)?;
            let ex = r_f64s(r)?;
            projection.push((x, ex));
        }
        Ok(Checkpoint {
            dim,
            n,
            np,
            dt,
            time,
            step_index,
            vel,
            pressure,
            temp,
            scalars,
            levels: ring_from_sections(times, groups)?,
            projection,
        })
    }

    /// Serialize as a compressed container: [`Z_MAGIC`] header wrapping
    /// the RLE-encoded plain serialization. Two passes of
    /// [`Checkpoint::write_to`]: one counts the raw length the header
    /// declares, the other streams through the encoder.
    pub fn write_compressed_to(&self, w: &mut dyn Write) -> io::Result<()> {
        let mut raw_len = ByteCount(0);
        self.write_to(&mut raw_len)?;
        w.write_all(&Z_MAGIC)?;
        w_u32(w, Z_VERSION)?;
        w_u32(w, CODEC_RLE)?;
        w_u64(w, raw_len.0)?;
        let mut enc = RleWriter::new(w);
        self.write_to(&mut enc)?;
        enc.finish()?;
        Ok(())
    }

    /// Deserialize from an in-memory image, accepting either format:
    /// a [`Z_MAGIC`] container is parsed as it decodes; a [`MAGIC`]
    /// image parses directly.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<Checkpoint> {
        Checkpoint::read_sniffed(bytes)
    }

    /// Parse either format from `r`, sniffing the magic. A container's
    /// payload must decode to exactly its declared raw length, also past
    /// the end of the checkpoint it holds.
    fn read_sniffed(mut r: impl BufRead) -> io::Result<Checkpoint> {
        let mut head = [0u8; 8];
        r.read_exact(&mut head)?;
        if head != Z_MAGIC {
            // Plain format: splice the sniffed header back in front of
            // the stream so `read_from` sees the whole file.
            return Checkpoint::read_from(&mut head.as_slice().chain(r));
        }
        let version = r_u32(&mut r)?;
        if version != Z_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "unsupported compressed-checkpoint version {version} (expected {Z_VERSION})"
                ),
            ));
        }
        let codec = r_u32(&mut r)?;
        if codec != CODEC_RLE {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown checkpoint codec id {codec}"),
            ));
        }
        let raw_len = r_u64(&mut r)?;
        if raw_len > MAX_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("compressed checkpoint raw length {raw_len} out of range"),
            ));
        }
        let mut raw = RleReader::new(r, raw_len);
        let ck = Checkpoint::read_from(&mut raw)?;
        // Bytes past the checkpoint must decode to the declared end too.
        io::copy(&mut raw, &mut io::sink())?;
        Ok(ck)
    }

    /// Write to `path` (buffered; the file is created or truncated).
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        self.save_with(path, false)
    }

    /// Write to `path`, compressed when `compress` is set. Readers never
    /// need to know which was used — [`Checkpoint::load`] sniffs the
    /// magic — so raw and compressed files can coexist in one
    /// checkpoint directory (e.g. across a config change mid-campaign).
    pub fn save_with(&self, path: impl AsRef<Path>, compress: bool) -> io::Result<()> {
        let mut w = BufWriter::with_capacity(FILE_BUF, File::create(path)?);
        if compress {
            self.write_compressed_to(&mut w)?;
        } else {
            self.write_to(&mut w)?;
        }
        w.flush()
    }

    /// Read from `path`, transparently handling both on-disk formats.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Checkpoint> {
        Checkpoint::read_sniffed(BufReader::with_capacity(FILE_BUF, File::open(path)?))
    }
}

/// A writer that only counts the bytes written to it.
struct ByteCount(u64);

impl Write for ByteCount {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::rle::{rle_compress, rle_decompress};
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            dim: 2,
            n: 3,
            np: 2,
            dt: 1e-3,
            time: 0.125,
            step_index: 17,
            vel: vec![vec![1.0, -2.5, 3.25], vec![0.0, 0.5, -0.5]],
            pressure: vec![9.0, -1.0],
            temp: Some(vec![0.1, 0.2, 0.3]),
            scalars: vec![Species {
                name: "dye".into(),
                kappa: 1e-6,
                values: vec![1.0, 0.0, -1.0],
            }],
            // u, v, T, dye at one past level.
            levels: vec![Level {
                time: 0.124,
                values: vec![
                    vec![1.0, 1.0, 1.0],
                    vec![2.0, 2.0, 2.0],
                    vec![0.1, 0.2, 0.25],
                    vec![1.0, 0.0, -1.0],
                ],
                conv: vec![
                    vec![0.0, 0.1, 0.2],
                    vec![0.3, 0.4, 0.5],
                    vec![0.0, 0.0, 0.01],
                    vec![0.0, 0.0, 0.0],
                ],
            }],
            projection: vec![(vec![0.5, -0.5], vec![1.5, -1.5])],
        }
    }

    #[test]
    fn round_trip_is_bitwise_exact() {
        // Include values that expose any non-bitwise path.
        let mut ck = sample();
        ck.pressure[0] = f64::MIN_POSITIVE;
        ck.vel[0][1] = -0.0;
        ck.time = 1.0 / 3.0;
        let mut buf = Vec::new();
        ck.write_to(&mut buf).unwrap();
        let back = Checkpoint::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back.vel[0][1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(back, ck);
    }

    #[test]
    fn sections_disagreeing_on_the_level_count_are_invalid_data() {
        // Two ring levels, but the dye is missing at the older one: the
        // file's dye section holds one level where the others hold two.
        let mut ck = sample();
        let mut older = ck.levels[0].clone();
        older.time = 0.123;
        older.values[3].clear();
        ck.levels.push(older);
        let mut buf = Vec::new();
        ck.write_to(&mut buf).unwrap();
        let err = Checkpoint::read_from(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("number of levels"), "{err}");
        // A convective section may be a prefix of the ring, never longer.
        ck.levels[1].values[3] = vec![0.0; 3];
        ck.levels[1].conv[0].clear();
        ck.levels[1].conv[1].clear();
        let mut buf = Vec::new();
        ck.write_to(&mut buf).unwrap();
        assert_eq!(Checkpoint::read_from(&mut buf.as_slice()).unwrap(), ck);
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut buf = Vec::new();
        sample().write_to(&mut buf).unwrap();
        let mut junk = buf.clone();
        junk[0] ^= 0xff;
        assert!(Checkpoint::read_from(&mut junk.as_slice()).is_err());
        let mut vjunk = buf.clone();
        vjunk[8] = 99; // version byte
        let err = Checkpoint::read_from(&mut vjunk.as_slice()).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn truncated_payload_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        sample().write_to(&mut buf).unwrap();
        for cut in [9, 24, buf.len() / 2, buf.len() - 1] {
            assert!(
                Checkpoint::read_from(&mut buf[..cut].as_ref()).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn rle_round_trips_structured_and_seeded_random_payloads() {
        // Structured: long zero runs, short runs, run lengths straddling
        // the 130-byte cap and the 128-byte literal cap.
        let mut cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![7],
            vec![1, 2],
            vec![5; 2],   // below MIN_RUN: stays literal
            vec![5; 3],   // exactly MIN_RUN
            vec![0; 129], // one max run falls just short
            vec![0; 130], // exactly one max run
            vec![0; 131], // max run + a 1-run tail (literal)
            vec![0; 1000],
            (0..=255u8).collect(),
            (0..512).map(|i| (i % 3) as u8).collect(),
        ];
        // Seeded pseudo-random mixes of runs and noise.
        let mut rng = sem_linalg::rng::SplitMix64::new(0x9e3779b97f4a7c15);
        for _ in 0..16 {
            let mut v = Vec::new();
            for _ in 0..64 {
                let r = rng.next_u64();
                let byte = (r & 0xff) as u8;
                let len = ((r >> 8) % 200) as usize;
                if r & (1 << 63) != 0 {
                    v.extend(std::iter::repeat(byte).take(len));
                } else {
                    for k in 0..len {
                        v.push(byte.wrapping_add(k as u8));
                    }
                }
            }
            cases.push(v);
        }
        for raw in &cases {
            let enc = rle_compress(raw);
            let back = rle_decompress(&enc, raw.len()).unwrap();
            assert_eq!(&back, raw, "round trip failed for len {}", raw.len());
            // Worst-case bound: one control byte per 128 literals.
            assert!(enc.len() <= raw.len() + raw.len() / 128 + 2);
        }
    }

    #[test]
    fn compressed_round_trip_is_bitwise_exact_and_smaller() {
        let mut ck = sample();
        ck.pressure[0] = f64::MIN_POSITIVE;
        ck.vel[0][1] = -0.0;
        // Pad with a quiescent scalar so the zero-run savings show.
        ck.scalars.push(Species {
            name: "quiet".into(),
            kappa: 0.0,
            values: vec![0.0; 512],
        });
        ck.levels[0].values.push(vec![0.0; 512]);
        ck.levels[0].conv.push(vec![0.0; 512]);
        let mut raw = Vec::new();
        ck.write_to(&mut raw).unwrap();
        let mut z = Vec::new();
        ck.write_compressed_to(&mut z).unwrap();
        assert!(
            z.len() < raw.len() / 2,
            "zero-heavy checkpoint should compress well: {} vs {}",
            z.len(),
            raw.len()
        );
        let back = Checkpoint::from_bytes(&z).unwrap();
        assert_eq!(back.vel[0][1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(back, ck);
        // The sniffing entry point also still parses plain images.
        assert_eq!(Checkpoint::from_bytes(&raw).unwrap(), ck);
    }

    #[test]
    fn save_with_both_formats_load_transparently() {
        let dir = std::env::temp_dir().join(format!("terasem_ckpt_z_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ck = sample();
        let p_raw = dir.join("ckpt_00000001.ckpt");
        let p_z = dir.join("ckpt_00000002.ckpt");
        ck.save_with(&p_raw, false).unwrap();
        ck.save_with(&p_z, true).unwrap();
        assert_eq!(Checkpoint::load(&p_raw).unwrap(), ck);
        assert_eq!(Checkpoint::load(&p_z).unwrap(), ck);
        let head = std::fs::read(&p_z).unwrap();
        assert_eq!(&head[..8], &Z_MAGIC, "compressed file leads with Z magic");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_compressed_containers_are_rejected() {
        let mut z = Vec::new();
        sample().write_compressed_to(&mut z).unwrap();
        // Bad container version.
        let mut v = z.clone();
        v[8] = 99;
        assert!(Checkpoint::from_bytes(&v)
            .unwrap_err()
            .to_string()
            .contains("version"));
        // Unknown codec id.
        let mut c = z.clone();
        c[12] = 42;
        assert!(Checkpoint::from_bytes(&c)
            .unwrap_err()
            .to_string()
            .contains("codec"));
        // Absurd raw length.
        let mut l = z.clone();
        l[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(Checkpoint::from_bytes(&l)
            .unwrap_err()
            .to_string()
            .contains("out of range"));
        // Truncated payload (torn write): error, not panic.
        for cut in [20, 24, 25, z.len() - 1] {
            assert!(Checkpoint::from_bytes(&z[..cut]).is_err(), "cut at {cut}");
        }
        // Declared length mismatches (stream too short / too long).
        let mut short = z.clone();
        let declared = u64::from_le_bytes(short[16..24].try_into().unwrap());
        short[16..24].copy_from_slice(&(declared + 1).to_le_bytes());
        assert!(Checkpoint::from_bytes(&short)
            .unwrap_err()
            .to_string()
            .contains("short"));
        let mut long = z.clone();
        long[16..24].copy_from_slice(&(declared - 1).to_le_bytes());
        assert!(Checkpoint::from_bytes(&long)
            .unwrap_err()
            .to_string()
            .contains("past"));
    }

    #[test]
    fn absurd_length_fields_are_rejected() {
        let mut buf = Vec::new();
        sample().write_to(&mut buf).unwrap();
        // First length field (vel outer count) starts after
        // magic(8)+version(4)+dim(4)+n(8)+np(8)+dt(8)+time(8)+step(8).
        let off = 8 + 4 + 4 + 8 + 8 + 8 + 8 + 8;
        buf[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = Checkpoint::read_from(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }
}
