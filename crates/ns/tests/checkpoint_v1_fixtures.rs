//! The v1 checkpoint format, pinned by committed files written before
//! the solver kept its multistep history in one ring: each fixture
//! re-serializes byte for byte, restores into an identically built
//! solver, and that solver's own capture serializes to the same bytes
//! again. Nothing is stepped there, so the files hold on any host; the
//! one stepping test compares two restored copies with each other.
//!
//! - `v1_ext_bdf3_temp_two_species.ckpt`: 2D Taylor–Green, 2×2
//!   elements, N = 4, EXT, BDF3, Boussinesq temperature and two species,
//!   after 4 steps.
//! - `v1_oifs_bdf2_one_species.ckpt`: the same vortex under OIFS, BDF2,
//!   with one dye species, after 3 steps — the velocity stores no
//!   convective history while the species does (the `shear-service`
//!   shape). The species' entries date from when scalars were
//!   EXT-convected under OIFS; the solver now advects them along
//!   characteristics and ignores those entries.
//! - `v1_oifs_bdf2_one_species_rle.ckpt`: the same checkpoint in the
//!   compressed container, written before the codec streamed.

use std::f64::consts::PI;
use std::path::PathBuf;

use sem_mesh::generators::box2d;
use sem_ns::checkpoint::{Checkpoint, Z_MAGIC};
use sem_ns::config::Boussinesq;
use sem_ns::{ConvectionScheme, NsConfig, NsSolver};
use sem_ops::SemOps;

fn taylor_green(cfg: NsConfig) -> NsSolver {
    let l = 2.0 * PI;
    let ops = SemOps::new(box2d(2, 2, [0.0, l], [0.0, l], true, true), 4);
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

fn ext_bdf3_temp_two_species() -> NsSolver {
    let mut s = taylor_green(NsConfig {
        torder: 3,
        convection: ConvectionScheme::Ext,
        boussinesq: Some(Boussinesq {
            g_beta: [0.0, 0.5, 0.0],
            kappa: 0.02,
        }),
        ..Default::default()
    });
    s.set_temperature(|x, y, _| 0.5 * x.cos() * y.sin());
    s.add_scalar("a", 0.05, |x, _, _| x.sin());
    s.add_scalar("b", 0.2, |_, y, _| y.cos());
    s
}

fn oifs_bdf2_one_species() -> NsSolver {
    let mut s = taylor_green(NsConfig {
        torder: 2,
        convection: ConvectionScheme::Oifs,
        ..Default::default()
    });
    s.add_scalar("dye", 1e-3, |x, y, _| x.sin() * y.cos());
    s
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name)
}

fn bytes_of(ck: &Checkpoint) -> Vec<u8> {
    let mut out = Vec::new();
    ck.write_to(&mut out).unwrap();
    out
}

/// Load `name`, re-serialize it, restore it into `solver` and capture
/// it back: both byte streams must equal the file.
fn assert_round_trips(name: &str, mut solver: NsSolver) -> Checkpoint {
    let path = fixture(name);
    let file = std::fs::read(&path).unwrap();
    let ck = Checkpoint::load(&path).unwrap();
    assert!(bytes_of(&ck) == file, "{name}: re-serialization differs");
    solver.restore_checkpoint(&ck).unwrap();
    assert!(
        bytes_of(&solver.checkpoint()) == file,
        "{name}: the restored solver's checkpoint differs"
    );
    ck
}

#[test]
fn ext_bdf3_fixture_with_temperature_and_two_species_round_trips() {
    let name = "v1_ext_bdf3_temp_two_species.ckpt";
    let ck = assert_round_trips(name, ext_bdf3_temp_two_species());
    assert_eq!(ck.step_index, 4);
    assert_eq!(ck.levels.len(), 3, "a BDF3 ring holds three levels");
    for level in &ck.levels {
        // u, v, T, a, b — every one EXT-convected.
        assert_eq!(level.values.len(), 5);
        assert!(level.conv.iter().all(|c| c.len() == level.values[0].len()));
    }
}

#[test]
fn oifs_bdf2_fixture_with_one_species_round_trips() {
    let name = "v1_oifs_bdf2_one_species.ckpt";
    let ck = assert_round_trips(name, oifs_bdf2_one_species());
    assert_eq!(ck.step_index, 3);
    assert_eq!(ck.levels.len(), 2, "a BDF2 ring holds two levels");
    for level in &ck.levels {
        // u, v under OIFS store no convective history; the dye does.
        assert!(level.conv[..2].iter().all(Vec::is_empty));
        assert_eq!(level.conv[2].len(), level.values[2].len());
    }
}

#[test]
fn compressed_fixture_loads_and_re_serializes_byte_for_byte() {
    let path = fixture("v1_oifs_bdf2_one_species_rle.ckpt");
    let file = std::fs::read(&path).unwrap();
    assert_eq!(&file[..8], &Z_MAGIC, "a compressed container");
    let ck = Checkpoint::load(&path).unwrap();
    let mut z = Vec::new();
    ck.write_compressed_to(&mut z).unwrap();
    assert!(z == file, "compressed re-serialization differs");
    let plain = Checkpoint::load(fixture("v1_oifs_bdf2_one_species.ckpt")).unwrap();
    assert!(
        bytes_of(&ck) == bytes_of(&plain),
        "the container holds the plain fixture's checkpoint"
    );
}

/// Under OIFS the dye rides the characteristics sweep, so the convective
/// history the fixture stores for it is stale: a copy restored with
/// those entries cleared steps to the same bits.
#[test]
fn stale_species_convection_in_an_oifs_fixture_is_ignored() {
    let ck = Checkpoint::load(fixture("v1_oifs_bdf2_one_species.ckpt")).unwrap();
    let mut cleared = ck.clone();
    for level in &mut cleared.levels {
        level.conv[2].clear();
    }
    let stepped = |ck: &Checkpoint| {
        let mut s = oifs_bdf2_one_species();
        s.restore_checkpoint(ck).unwrap();
        s.step().unwrap();
        bytes_of(&s.checkpoint())
    };
    assert!(
        stepped(&ck) == stepped(&cleared),
        "the stale dye convection changed the step"
    );
}
