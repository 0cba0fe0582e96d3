use hgpcn_geometry::PointCloud;

use crate::kitti::{self, KittiConfig};
use crate::modelnet::{self, ModelNetObject};
use crate::s3dis::{self, RoomConfig};
use crate::shapenet::{self, ShapeNetCategory};

/// The named evaluation frames appearing on the paper's figure x-axes
/// (Figs. 9–13): a set of ModelNet40 objects of different sizes and
/// uniformity, a ShapeNet object, an S3DIS room, and `kitti.avg`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EvalFrame {
    /// `MN.airplane` at ~6·10^4 points.
    MnAirplane,
    /// `MN.chair` at ~8·10^4 points.
    MnChair,
    /// `MN.piano` at ~1·10^5 points — strongly non-uniform.
    MnPiano,
    /// `MN.plant` at ~1·10^5 points — near-uniform, same size as piano.
    MnPlant,
    /// `MN.car` at ~1.4·10^5 points.
    MnCar,
    /// `SN.mug` at ~3·10^3 points (ShapeNet raw frames are tiny).
    SnMug,
    /// `s3dis.room`: one office room at ~1.5·10^5 points.
    S3disRoom,
    /// `kitti.avg`: an average-size LiDAR frame (~6·10^4 at the executed
    /// resolution; the paper's raw KITTI is ~10^6).
    KittiAvg,
}

impl EvalFrame {
    /// The frames in figure order (small → large).
    pub const ALL: [EvalFrame; 8] = [
        EvalFrame::SnMug,
        EvalFrame::MnAirplane,
        EvalFrame::MnChair,
        EvalFrame::MnPiano,
        EvalFrame::MnPlant,
        EvalFrame::MnCar,
        EvalFrame::S3disRoom,
        EvalFrame::KittiAvg,
    ];

    /// The pre-processing-figure frames (ShapeNet is skipped there because
    /// its raw frames are already below the sampling target, §VII-B).
    pub const PREPROCESSING: [EvalFrame; 7] = [
        EvalFrame::MnAirplane,
        EvalFrame::MnChair,
        EvalFrame::MnPiano,
        EvalFrame::MnPlant,
        EvalFrame::MnCar,
        EvalFrame::S3disRoom,
        EvalFrame::KittiAvg,
    ];

    /// The label printed on figure x-axes.
    pub fn label(self) -> &'static str {
        match self {
            EvalFrame::MnAirplane => "MN.airplane",
            EvalFrame::MnChair => "MN.chair",
            EvalFrame::MnPiano => "MN.piano",
            EvalFrame::MnPlant => "MN.plant",
            EvalFrame::MnCar => "MN.car",
            EvalFrame::SnMug => "SN.mug",
            EvalFrame::S3disRoom => "s3dis.room",
            EvalFrame::KittiAvg => "kitti.avg",
        }
    }

    /// Nominal raw frame size.
    pub fn raw_points(self) -> usize {
        match self {
            EvalFrame::MnAirplane => 60_000,
            EvalFrame::MnChair => 80_000,
            EvalFrame::MnPiano => 100_000,
            EvalFrame::MnPlant => 100_000,
            EvalFrame::MnCar => 140_000,
            EvalFrame::SnMug => 3_000,
            EvalFrame::S3disRoom => 150_000,
            EvalFrame::KittiAvg => 0, // determined by the scanner
        }
    }

    /// The down-sampling target for this frame (Table I input sizes).
    pub fn sample_target(self) -> usize {
        match self {
            EvalFrame::MnAirplane
            | EvalFrame::MnChair
            | EvalFrame::MnPiano
            | EvalFrame::MnPlant
            | EvalFrame::MnCar => 1024,
            EvalFrame::SnMug => 2048,
            EvalFrame::S3disRoom => 4096,
            EvalFrame::KittiAvg => 16384,
        }
    }

    /// Generates the frame deterministically from `seed`.
    pub fn generate(self, seed: u64) -> PointCloud {
        match self {
            EvalFrame::MnAirplane => {
                modelnet::generate(ModelNetObject::Airplane, self.raw_points(), seed)
            }
            EvalFrame::MnChair => {
                modelnet::generate(ModelNetObject::Chair, self.raw_points(), seed)
            }
            EvalFrame::MnPiano => {
                modelnet::generate(ModelNetObject::Piano, self.raw_points(), seed)
            }
            EvalFrame::MnPlant => {
                modelnet::generate(ModelNetObject::Plant, self.raw_points(), seed)
            }
            EvalFrame::MnCar => modelnet::generate(ModelNetObject::Car, self.raw_points(), seed),
            EvalFrame::SnMug => shapenet::generate(ShapeNetCategory::Mug, self.raw_points(), seed),
            EvalFrame::S3disRoom => {
                s3dis::generate_room(RoomConfig::default(), self.raw_points(), seed)
            }
            EvalFrame::KittiAvg => kitti::generate_frame(KittiConfig::standard(), seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_unique() {
        let labels: std::collections::HashSet<_> =
            EvalFrame::ALL.iter().map(|f| f.label()).collect();
        assert_eq!(labels.len(), EvalFrame::ALL.len());
    }

    #[test]
    fn generated_sizes_match_nominal() {
        {
            let f = EvalFrame::SnMug;
            // Small frame: cheap to generate in a unit test.
            let cloud = f.generate(1);
            assert_eq!(cloud.len(), f.raw_points());
        }
    }

    #[test]
    fn sample_targets_are_table_i_sizes() {
        assert_eq!(EvalFrame::MnPiano.sample_target(), 1024);
        assert_eq!(EvalFrame::SnMug.sample_target(), 2048);
        assert_eq!(EvalFrame::S3disRoom.sample_target(), 4096);
        assert_eq!(EvalFrame::KittiAvg.sample_target(), 16384);
    }

    #[test]
    fn preprocessing_set_skips_shapenet() {
        assert!(!EvalFrame::PREPROCESSING.contains(&EvalFrame::SnMug));
    }
}
