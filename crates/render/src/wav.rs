//! Minimal 16-bit PCM WAV output for binaural renders.
//!
//! Examples and downstream tools write what the listener would hear; a
//! RIFF/WAVE writer needs ~40 lines, so we avoid an external dependency.

use uniq_core::hrtf::BinauralSignal;

/// Serializes interleaved stereo 16-bit PCM WAV bytes from a binaural
/// signal, clamping samples to `[-1, 1]`.
///
/// ```
/// use uniq_core::hrtf::BinauralSignal;
/// use uniq_render::wav::to_wav_bytes;
/// let s = BinauralSignal { left: vec![0.0; 480], right: vec![0.0; 480] };
/// let bytes = to_wav_bytes(&s, 48_000.0);
/// assert_eq!(&bytes[..4], b"RIFF");
/// assert_eq!(bytes.len(), 44 + 480 * 4);
/// ```
///
/// # Panics
/// Panics if the channel lengths differ or the sample rate is not a
/// positive integer-representable value.
pub fn to_wav_bytes(signal: &BinauralSignal, sample_rate: f64) -> Vec<u8> {
    assert_eq!(
        signal.left.len(),
        signal.right.len(),
        "stereo channels must match"
    );
    assert!(
        sample_rate > 0.0 && sample_rate <= u32::MAX as f64,
        "bad sample rate {sample_rate}"
    );
    let sr = sample_rate.round() as u32;
    let n = signal.left.len() as u32;
    let data_bytes = n * 4; // 2 channels × 2 bytes
    let mut out = Vec::with_capacity(44 + data_bytes as usize);

    // RIFF header.
    out.extend_from_slice(b"RIFF");
    out.extend_from_slice(&(36 + data_bytes).to_le_bytes());
    out.extend_from_slice(b"WAVE");
    // fmt chunk: PCM, stereo, 16-bit.
    out.extend_from_slice(b"fmt ");
    out.extend_from_slice(&16u32.to_le_bytes());
    out.extend_from_slice(&1u16.to_le_bytes()); // PCM
    out.extend_from_slice(&2u16.to_le_bytes()); // channels
    out.extend_from_slice(&sr.to_le_bytes());
    out.extend_from_slice(&(sr * 4).to_le_bytes()); // byte rate
    out.extend_from_slice(&4u16.to_le_bytes()); // block align
    out.extend_from_slice(&16u16.to_le_bytes()); // bits per sample
                                                 // data chunk.
    out.extend_from_slice(b"data");
    out.extend_from_slice(&data_bytes.to_le_bytes());
    for (l, r) in signal.left.iter().zip(&signal.right) {
        for v in [l, r] {
            let q = (v.clamp(-1.0, 1.0) * i16::MAX as f64).round() as i16;
            out.extend_from_slice(&q.to_le_bytes());
        }
    }
    out
}

/// Writes a binaural signal to a stereo WAV file.
///
/// # Errors
/// Propagates I/O errors.
pub fn write_wav(
    signal: &BinauralSignal,
    sample_rate: f64,
    path: &std::path::Path,
) -> std::io::Result<()> {
    std::fs::write(path, to_wav_bytes(signal, sample_rate))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig() -> BinauralSignal {
        BinauralSignal {
            left: vec![0.0, 0.5, -0.5, 1.0],
            right: vec![1.0, -1.0, 0.25, 0.0],
        }
    }

    #[test]
    fn header_fields_correct() {
        let bytes = to_wav_bytes(&sig(), 48_000.0);
        assert_eq!(&bytes[0..4], b"RIFF");
        assert_eq!(&bytes[8..12], b"WAVE");
        assert_eq!(&bytes[12..16], b"fmt ");
        // channels
        assert_eq!(u16::from_le_bytes([bytes[22], bytes[23]]), 2);
        // sample rate
        assert_eq!(
            u32::from_le_bytes([bytes[24], bytes[25], bytes[26], bytes[27]]),
            48_000
        );
        // bits per sample
        assert_eq!(u16::from_le_bytes([bytes[34], bytes[35]]), 16);
        // total size: 44-byte header + 4 frames × 4 bytes
        assert_eq!(bytes.len(), 44 + 16);
    }

    #[test]
    fn samples_quantized_and_interleaved() {
        let bytes = to_wav_bytes(&sig(), 8000.0);
        let sample = |idx: usize| i16::from_le_bytes([bytes[44 + idx * 2], bytes[45 + idx * 2]]);
        assert_eq!(sample(0), 0); // L0
        assert_eq!(sample(1), i16::MAX); // R0
        assert_eq!(sample(2), (0.5 * i16::MAX as f64).round() as i16); // L1
        assert_eq!(sample(3), -i16::MAX); // R1 (clamped −1.0)
    }

    #[test]
    fn clipping_is_clamped() {
        let s = BinauralSignal {
            left: vec![2.0],
            right: vec![-3.0],
        };
        let bytes = to_wav_bytes(&s, 8000.0);
        let l = i16::from_le_bytes([bytes[44], bytes[45]]);
        let r = i16::from_le_bytes([bytes[46], bytes[47]]);
        assert_eq!(l, i16::MAX);
        assert_eq!(r, -i16::MAX);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "test files are written under the temp dir"
    )]
    fn file_write_roundtrip() {
        let dir = std::env::temp_dir().join("uniq_wav_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.wav");
        write_wav(&sig(), 16_000.0, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[0..4], b"RIFF");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "channels must match")]
    fn ragged_channels_rejected() {
        let s = BinauralSignal {
            left: vec![0.0; 3],
            right: vec![0.0; 4],
        };
        to_wav_bytes(&s, 8000.0);
    }
}
