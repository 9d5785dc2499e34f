//! The compressed container's run-length codec (PackBits-style).
//!
//! Control byte `c`:
//!   `0x00..=0x7F`: the next `c + 1` bytes are a literal chunk (1..=128);
//!   `0x80..=0xFF`: the next byte repeats `(c − 0x80) + 3` times (3..=130).
//!
//! The encoding is canonical, one byte string per input, so compressed
//! checkpoints byte-compare like plain ones: the input is cut into its
//! maximal stretches of equal bytes, each stretch into runs of 130 and a
//! remainder; every run or remainder of 3 bytes or more is a repeat, and
//! all other bytes form the literal stretches between repeats, each cut
//! into 128-byte chunks from its start. A run shorter than 3 costs as
//! much as a literal either way, and splitting the literal for it only
//! adds a control byte. Worst-case expansion is 1 byte per 128.
//!
//! Float-dominated payloads barely repeat: a shear-service checkpoint
//! (16×16 elements, N = 8, one dye, a full projection basis) encodes to
//! 100.8% of its 3,600,815 plain bytes. The codec stays because the
//! container format and the jobs that write it (`RunPolicy::compress`)
//! do.
//!
//! [`RleWriter`] and [`RleReader`] stream: the checkpoint passes through
//! them in one pass, with no whole raw or encoded image in memory.
//! [`rle_compress`] and [`rle_decompress`] are the batch forms of the
//! same codec, kept as the oracle the streaming forms are tested
//! against.

use std::io::{self, BufRead, Read, Write};

use super::invalid;

const RLE_MIN_RUN: usize = 3;
const RLE_MAX_RUN: usize = 130; // 0xFF - 0x80 + RLE_MIN_RUN
const RLE_MAX_LIT: usize = 128; // 0x7F + 1

fn rle_flush_literals(out: &mut Vec<u8>, lits: &[u8]) {
    for chunk in lits.chunks(RLE_MAX_LIT) {
        out.push((chunk.len() - 1) as u8);
        out.extend_from_slice(chunk);
    }
}

/// Run-length encode `raw` in one batch (the oracle of [`RleWriter`]).
pub fn rle_compress(raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(raw.len() / 4 + 16);
    let mut lit_start = 0;
    let mut i = 0;
    while i < raw.len() {
        let b = raw[i];
        let mut j = i + 1;
        while j < raw.len() && raw[j] == b && j - i < RLE_MAX_RUN {
            j += 1;
        }
        let run = j - i;
        if run >= RLE_MIN_RUN {
            rle_flush_literals(&mut out, &raw[lit_start..i]);
            out.push(0x80 + (run - RLE_MIN_RUN) as u8);
            out.push(b);
            lit_start = j;
        }
        i = j;
    }
    rle_flush_literals(&mut out, &raw[lit_start..]);
    out
}

/// Decode an [`rle_compress`] stream in one batch (the oracle of
/// [`RleReader`]). `raw_len` is the declared decoded size from the
/// container header; the stream must decode to exactly that many bytes
/// — over- or under-runs are corruption, not padding.
pub fn rle_decompress(enc: &[u8], raw_len: usize) -> io::Result<Vec<u8>> {
    let mut out = Vec::with_capacity(raw_len);
    let mut i = 0;
    while i < enc.len() {
        let c = enc[i];
        i += 1;
        if c < 0x80 {
            let len = c as usize + 1;
            if i + len > enc.len() {
                return Err(invalid("rle literal run truncated"));
            }
            out.extend_from_slice(&enc[i..i + len]);
            i += len;
        } else {
            if i >= enc.len() {
                return Err(invalid("rle repeat run truncated"));
            }
            let len = (c - 0x80) as usize + RLE_MIN_RUN;
            let b = enc[i];
            i += 1;
            out.resize(out.len() + len, b);
        }
        if out.len() > raw_len {
            return Err(invalid("rle stream decodes past the declared raw length"));
        }
    }
    if out.len() != raw_len {
        return Err(invalid(
            "rle stream decodes short of the declared raw length",
        ));
    }
    Ok(out)
}

/// A [`Write`] adapter that run-length encodes everything written to it
/// into `inner`, emitting exactly the bytes [`rle_compress`] gives for
/// the concatenation of the writes, however they are split. It holds
/// one partial literal chunk and the open stretch of equal bytes across
/// writes; [`RleWriter::finish`] emits them and ends the stream, and
/// dropping the writer without it loses that tail. `flush` flushes
/// `inner` only: ending a chunk early would change the encoding.
pub struct RleWriter<W: Write> {
    inner: W,
    /// The literal chunk being filled: its control byte, then
    /// `lit_len` bytes.
    lit: [u8; 1 + RLE_MAX_LIT],
    lit_len: usize,
    /// The open stretch: `run` (< 130) copies of `byte`, still undecided
    /// between a repeat and literal bytes.
    byte: u8,
    run: usize,
}

impl<W: Write> RleWriter<W> {
    /// Encode into `inner`.
    pub fn new(inner: W) -> Self {
        RleWriter {
            inner,
            lit: [0; 1 + RLE_MAX_LIT],
            lit_len: 0,
            byte: 0,
            run: 0,
        }
    }

    /// End the stream: emit the open stretch and the partial literal
    /// chunk, and hand `inner` back (not flushed).
    pub fn finish(mut self) -> io::Result<W> {
        self.close_stretch()?;
        self.flush_literal()?;
        Ok(self.inner)
    }

    fn flush_literal(&mut self) -> io::Result<()> {
        if self.lit_len > 0 {
            self.lit[0] = (self.lit_len - 1) as u8;
            self.inner.write_all(&self.lit[..1 + self.lit_len])?;
            self.lit_len = 0;
        }
        Ok(())
    }

    /// Append literal bytes, emitting every chunk that fills.
    fn push_literal(&mut self, mut bytes: &[u8]) -> io::Result<()> {
        while !bytes.is_empty() {
            let k = (RLE_MAX_LIT - self.lit_len).min(bytes.len());
            self.lit[1 + self.lit_len..1 + self.lit_len + k].copy_from_slice(&bytes[..k]);
            self.lit_len += k;
            bytes = &bytes[k..];
            if self.lit_len == RLE_MAX_LIT {
                self.flush_literal()?;
            }
        }
        Ok(())
    }

    /// Emit the open stretch: a repeat from 3 bytes on, literal bytes
    /// below.
    fn close_stretch(&mut self) -> io::Result<()> {
        let run = std::mem::take(&mut self.run);
        if run >= RLE_MIN_RUN {
            self.flush_literal()?;
            self.inner
                .write_all(&[0x80 + (run - RLE_MIN_RUN) as u8, self.byte])
        } else {
            self.push_literal(&[self.byte; RLE_MIN_RUN - 1][..run])
        }
    }
}

/// Where the literal bytes from `p` (the start of a stretch) end in
/// `buf`: at the first stretch of 3 or more bytes, or else at the start
/// of the buffer's last stretch, which the next write may continue.
fn literal_end(buf: &[u8], p: usize) -> usize {
    let n = buf.len();
    let mut q = p;
    while q + 2 < n {
        if buf[q + 1] != buf[q + 2] {
            // Neither q nor q + 1 starts three equal bytes.
            q += 2;
        } else if buf[q] == buf[q + 1] {
            return q;
        } else {
            q += 1;
        }
    }
    // No stretch of 3 starts at or after p inside `buf`: the last
    // stretch is its final byte, or its final two when they are equal.
    if n >= p + 2 && buf[n - 2] == buf[n - 1] {
        n - 2
    } else {
        n - 1
    }
}

impl<W: Write> Write for RleWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut p = 0;
        while p < buf.len() {
            // Extend the open stretch; at 130 it is a full repeat.
            while p < buf.len() && buf[p] == self.byte {
                self.run += 1;
                p += 1;
                if self.run == RLE_MAX_RUN {
                    self.close_stretch()?;
                }
            }
            if p == buf.len() {
                break;
            }
            // A different byte ends the stretch. The stretches shorter
            // than 3 that follow go to the literal in one copy.
            self.close_stretch()?;
            let q = literal_end(buf, p);
            self.push_literal(&buf[p..q])?;
            self.byte = buf[q];
            p = q;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Where an [`RleReader`] is in the encoded stream.
#[derive(Clone, Copy)]
enum Chunk {
    /// At a control byte (or the end of the stream).
    Control,
    /// Inside a literal chunk, with this many bytes left.
    Literal(usize),
    /// Past a repeat's control byte, before the byte it repeats.
    RepeatByte(usize),
    /// Inside a repeat of this byte, with this many copies left.
    Repeat(u8, usize),
}

/// A [`Read`] adapter that decodes an [`rle_compress`] stream from
/// `inner` as it is read, holding no more than `inner`'s own buffer. It
/// accepts and rejects what [`rle_decompress`] does: the stream must end
/// exactly at the declared raw length, and a truncated chunk, a chunk
/// that would decode past that length, or a stream that ends short of
/// it is an `InvalidData` error. A read that hits an error after
/// decoding some bytes returns those, and the next read the error.
pub struct RleReader<R: BufRead> {
    inner: R,
    /// Decoded bytes the declared raw length still allows beyond the
    /// chunks already started.
    budget: u64,
    chunk: Chunk,
}

impl<R: BufRead> RleReader<R> {
    /// Decode `inner`, which must decode to exactly `raw_len` bytes.
    pub fn new(inner: R, raw_len: u64) -> Self {
        RleReader {
            inner,
            budget: raw_len,
            chunk: Chunk::Control,
        }
    }

    /// Decode the next piece of the stream into the front of `out` (not
    /// empty): `Some(count)`, where a control byte decodes 0 bytes, or
    /// `None` at the stream's valid end. An error leaves the reader
    /// where it found it, so the next call meets it again.
    fn step(&mut self, out: &mut [u8]) -> io::Result<Option<usize>> {
        match self.chunk {
            Chunk::Control => {
                let Some(&c) = self.inner.fill_buf()?.first() else {
                    if self.budget == 0 {
                        return Ok(None);
                    }
                    return Err(invalid(
                        "rle stream decodes short of the declared raw length",
                    ));
                };
                let len = if c < 0x80 {
                    c as usize + 1
                } else {
                    (c - 0x80) as usize + RLE_MIN_RUN
                };
                if len as u64 > self.budget {
                    return Err(invalid("rle stream decodes past the declared raw length"));
                }
                self.inner.consume(1);
                self.budget -= len as u64;
                self.chunk = if c < 0x80 {
                    Chunk::Literal(len)
                } else {
                    Chunk::RepeatByte(len)
                };
                Ok(Some(0))
            }
            Chunk::Literal(left) => {
                let avail = self.inner.fill_buf()?;
                if avail.is_empty() {
                    return Err(invalid("rle literal run truncated"));
                }
                let k = left.min(avail.len()).min(out.len());
                out[..k].copy_from_slice(&avail[..k]);
                self.inner.consume(k);
                self.chunk = match left - k {
                    0 => Chunk::Control,
                    rest => Chunk::Literal(rest),
                };
                Ok(Some(k))
            }
            Chunk::RepeatByte(len) => {
                let Some(&b) = self.inner.fill_buf()?.first() else {
                    return Err(invalid("rle repeat run truncated"));
                };
                self.inner.consume(1);
                self.chunk = Chunk::Repeat(b, len);
                Ok(Some(0))
            }
            Chunk::Repeat(b, left) => {
                let k = left.min(out.len());
                out[..k].fill(b);
                self.chunk = match left - k {
                    0 => Chunk::Control,
                    rest => Chunk::Repeat(b, rest),
                };
                Ok(Some(k))
            }
        }
    }
}

impl<R: BufRead> Read for RleReader<R> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let mut filled = 0;
        while filled < out.len() {
            match self.step(&mut out[filled..]) {
                Ok(Some(k)) => filled += k,
                Ok(None) => break,
                Err(e) if filled == 0 => return Err(e),
                // Return what decoded; the next read meets the error.
                Err(_) => break,
            }
        }
        Ok(filled)
    }
}
