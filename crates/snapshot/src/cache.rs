//! Content-addressed result cache for sweep cells.
//!
//! A *cell* is one simulation execution, identified by exactly the
//! inputs that determine its output bit for bit: the canonical emitted
//! `.scn` text (which embeds the seed and every scenario parameter), the
//! quality tier the submitter asked for (tiers may clamp the horizon),
//! and the seed. Two submissions whose cells agree on those three
//! produce byte-identical `RunStats::to_json` (modulo the wall-clock
//! `engine` block) — so the first result can be stored once and served
//! forever, across submissions and across server restarts.
//!
//! # On-disk layout
//!
//! ```text
//! <root>/cas/<hash>.key         the canonical key material (collision guard)
//! <root>/cas/<hash>.stats.json  the exact RunStats::to_json bytes
//! <root>/ckpt/<hash>.ckpt       mid-run checkpoint of an interrupted cell
//! <root>/jobs/<id>.json         submission manifests (owned by the server)
//! ```
//!
//! The hash is SHA-256 (hex) of the key material. A lookup verifies the
//! stored `.key` bytes against the requested key before trusting the
//! stats — a hash collision (or a hand-edited store) degrades to a cache
//! miss plus a recomputation, never a wrong answer served silently.
//!
//! All writes go through [`write_atomic`] (temp file + rename in the
//! destination directory), so a crash mid-write leaves either the old
//! entry or none — never a torn file that a restarted server would trust.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------
// SHA-256 (FIPS 180-4), self-contained
// ---------------------------------------------------------------------

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// SHA-256 of `data`, as the raw 32-byte digest.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    // Padded message: data ‖ 0x80 ‖ zeros ‖ 64-bit big-endian bit length.
    // Whole blocks are read from `data` in place; only its last partial
    // block is copied, into the one or two padded blocks that end it.
    let bit_len = (data.len() as u64).wrapping_mul(8);
    let blocks = data.chunks_exact(64);
    let rest = blocks.remainder();
    let mut tail = [0u8; 128];
    tail[..rest.len()].copy_from_slice(rest);
    tail[rest.len()] = 0x80;
    let tail_len = if rest.len() < 56 { 64 } else { 128 };
    tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
    let mut w = [0u32; 64];
    for block in blocks.chain(tail[..tail_len].chunks_exact(64)) {
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *s = s.wrapping_add(v);
        }
    }
    let mut out = [0u8; 32];
    for (i, word) in h.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// SHA-256 of `data` as lowercase hex.
pub fn sha256_hex(data: &[u8]) -> String {
    let mut s = String::with_capacity(64);
    for b in sha256(data) {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

// ---------------------------------------------------------------------
// Cell keys
// ---------------------------------------------------------------------

/// The complete identity of one cached cell: the exact emitted `.scn`
/// text, the quality tier label, and the seed. Equal keys are guaranteed
/// (by the engine's bit-identity contract) to produce byte-identical
/// stats; the cache never needs to compare anything else.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// The canonical `.scn` text (as `emit_spec` produces it).
    pub scn: String,
    /// The quality tier label (`test`, `quick`, `paper-lite`, `paper`).
    pub quality: String,
    /// The run seed (also embedded in the `.scn` text; kept explicit so
    /// the key survives any future spec form that externalises it).
    pub seed: u64,
}

impl CellKey {
    /// The canonical byte string the hash covers. Quality and seed ride
    /// in a header above the spec text so no crafted `.scn` comment can
    /// collide two different keys into the same material.
    pub fn material(&self) -> String {
        format!(
            "quality={}\nseed={}\n---\n{}",
            self.quality, self.seed, self.scn
        )
    }

    /// The content address: SHA-256 hex of [`CellKey::material`].
    pub fn hash_hex(&self) -> String {
        sha256_hex(self.material().as_bytes())
    }
}

// ---------------------------------------------------------------------
// The on-disk store
// ---------------------------------------------------------------------

/// A content-addressed result store rooted at one directory (see the
/// module docs for the layout). Creating a [`Store`] creates the layout
/// directories and probes their writability, so a server on a read-only
/// root fails at startup, not at the first finished cell.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Opens (creating if needed) the store at `root`.
    pub fn open(root: &Path) -> std::io::Result<Store> {
        for sub in ["cas", "ckpt", "jobs"] {
            let dir = root.join(sub);
            fs::create_dir_all(&dir)?;
            probe_writable(&dir)?;
        }
        Ok(Store {
            root: root.to_path_buf(),
        })
    }

    /// The store root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The jobs directory (submission manifests, owned by the server).
    pub fn jobs_dir(&self) -> PathBuf {
        self.root.join("jobs")
    }

    /// Where an interrupted run of `key` keeps its checkpoint.
    pub fn ckpt_path(&self, key: &CellKey) -> PathBuf {
        self.root.join("ckpt").join(key.hash_hex() + ".ckpt")
    }

    fn cas_paths(&self, key: &CellKey) -> (PathBuf, PathBuf) {
        let h = key.hash_hex();
        let cas = self.root.join("cas");
        (cas.join(h.clone() + ".key"), cas.join(h + ".stats.json"))
    }

    /// The cached stats bytes for `key`, if present. The stored key
    /// material is verified byte for byte first; a mismatch (hash
    /// collision, tampered store) reads as a miss.
    pub fn lookup(&self, key: &CellKey) -> Option<Vec<u8>> {
        let (key_path, stats_path) = self.cas_paths(key);
        let stored = fs::read(&key_path).ok()?;
        if stored != key.material().as_bytes() {
            return None;
        }
        fs::read(&stats_path).ok()
    }

    /// Stores `stats_json` (the exact `RunStats::to_json` bytes) as the
    /// result for `key` and drops the cell's checkpoint, which a
    /// finished result obsoletes. Atomic: a crash leaves the store
    /// either updated or untouched.
    pub fn insert(&self, key: &CellKey, stats_json: &[u8]) -> std::io::Result<()> {
        let (key_path, stats_path) = self.cas_paths(key);
        // Stats first: a key file without stats would verify and then
        // miss, but stats without a key file are simply unreachable.
        write_atomic(&stats_path, stats_json)?;
        write_atomic(&key_path, key.material().as_bytes())?;
        fs::remove_file(self.ckpt_path(key)).ok();
        Ok(())
    }
}

/// Writes `bytes` to `path` atomically: a temp file in the same
/// directory, flushed, then renamed over the destination.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let tmp = dir.join(format!(
        ".{}.tmp.{}",
        path.file_name().and_then(|n| n.to_str()).unwrap_or("file"),
        std::process::id()
    ));
    let mut f = fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    match fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            fs::remove_file(&tmp).ok();
            Err(e)
        }
    }
}

/// Creates (if needed) `dir` and proves it is writable by creating and
/// removing a probe file — so a doomed output location fails a run at
/// startup instead of hours in, at the first real write.
pub fn ensure_writable_dir(dir: &Path) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    probe_writable(dir)
}

fn probe_writable(dir: &Path) -> std::io::Result<()> {
    let probe = dir.join(format!(".probe.{}", std::process::id()));
    fs::write(&probe, b"probe")?;
    fs::remove_file(&probe)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIPS 180-4 test vectors: the implementation is checked against
    /// the published digests, not against itself.
    #[test]
    fn sha256_matches_the_published_vectors() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // A long input crossing many block boundaries.
        let million_a = vec![b'a'; 1_000_000];
        assert_eq!(
            sha256_hex(&million_a),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn cell_keys_separate_every_field() {
        let base = CellKey {
            scn: "model = sensor\n".into(),
            quality: "test".into(),
            seed: 1,
        };
        let same = base.clone();
        assert_eq!(base.hash_hex(), same.hash_hex());
        for other in [
            CellKey {
                scn: "model = dot11\n".into(),
                ..base.clone()
            },
            CellKey {
                quality: "paper".into(),
                ..base.clone()
            },
            CellKey {
                seed: 2,
                ..base.clone()
            },
        ] {
            assert_ne!(base.hash_hex(), other.hash_hex());
        }
    }

    #[test]
    fn store_round_trips_and_verifies_key_material() {
        let root = std::env::temp_dir().join(format!("bcp-cache-test-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let store = Store::open(&root).expect("store opens");
        let key = CellKey {
            scn: "model = sensor\nseed = 7\n".into(),
            quality: "quick".into(),
            seed: 7,
        };
        assert!(store.lookup(&key).is_none(), "empty store misses");
        store.insert(&key, b"{\"goodput\":1.0}").expect("inserts");
        assert_eq!(
            store.lookup(&key).as_deref(),
            Some(&b"{\"goodput\":1.0}"[..]),
            "hit returns the exact stored bytes"
        );
        // Tamper with the key material: the entry must degrade to a miss.
        let (key_path, _) = store.cas_paths(&key);
        std::fs::write(&key_path, b"something else").expect("tamper");
        assert!(store.lookup(&key).is_none(), "tampered entry reads as miss");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn checkpoints_are_dropped_when_a_result_lands() {
        let root = std::env::temp_dir().join(format!("bcp-cache-ckpt-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let store = Store::open(&root).expect("store opens");
        let key = CellKey {
            scn: "model = sensor\n".into(),
            quality: "test".into(),
            seed: 3,
        };
        std::fs::write(store.ckpt_path(&key), b"partial").expect("fake ckpt");
        store.insert(&key, b"{}").expect("inserts");
        assert!(
            !store.ckpt_path(&key).exists(),
            "a finished result obsoletes the checkpoint"
        );
        std::fs::remove_dir_all(&root).ok();
    }
}
