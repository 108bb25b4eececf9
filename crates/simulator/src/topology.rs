//! Tests of the link topology a [`Testbed`] derives: dataflow links follow
//! the device-class rule of [`Testbed::device_bandwidth`], and peer-serving
//! links are the uniform `TestbedParams::peer_bw` unless a directed pair is
//! dented with [`Testbed::set_peer_link`].

mod tests {
    use crate::testbed::Testbed;
    use deep_dataflow::DeviceClass;
    use deep_netsim::{Bandwidth, DataSize, DeviceId, Seconds};

    const FLEET: usize = 40;

    /// A 40-device fleet; its cloud-class devices are ids 2, 15 and 31.
    fn fleet() -> (Testbed, Vec<usize>) {
        let t = Testbed::synthetic_fleet(FLEET, 3, 7);
        let cloud: Vec<usize> =
            t.devices.iter().filter(|d| d.class == DeviceClass::Cloud).map(|d| d.id.0).collect();
        assert_eq!(cloud, vec![2, 15, 31]);
        (t, cloud)
    }

    fn pairs() -> impl Iterator<Item = (DeviceId, DeviceId)> {
        (0..FLEET).flat_map(|a| (0..FLEET).map(move |b| (DeviceId(a), DeviceId(b))))
    }

    #[test]
    fn uniform_mesh_is_complete_and_loopback_free() {
        let (t, cloud) = fleet();
        for (from, to) in pairs() {
            let bw = t.device_bandwidth(from, to);
            if from == to {
                assert!(bw.as_bytes_per_sec().is_infinite(), "{from} -> {to}");
            } else if cloud.contains(&from.0) || cloud.contains(&to.0) {
                assert_eq!(bw, t.params.wan, "{from} -> {to}");
            } else {
                assert_eq!(bw, t.params.lan, "{from} -> {to}");
            }
        }
    }

    #[test]
    fn loopback_is_free() {
        let (t, _) = fleet();
        for d in 0..FLEET {
            let time = t.device_transfer_time(DeviceId(d), DeviceId(d), DataSize::gigabytes(1e6));
            assert_eq!(time, Seconds::ZERO, "device {d}");
        }
    }

    #[test]
    fn cross_device_transfer_time() {
        let (t, cloud) = fleet();
        for (from, to) in pairs().filter(|(a, b)| a != b) {
            // 250 MB over the 20 MB/s WAN or the 100 MB/s LAN.
            let secs = if cloud.contains(&from.0) || cloud.contains(&to.0) { 12.5 } else { 2.5 };
            let tc = t.device_transfer_time(from, to, DataSize::megabytes(250.0));
            assert!((tc.as_f64() - secs).abs() < 1e-9, "{from} -> {to}: {tc}");
        }
    }

    #[test]
    fn zero_size_transfer_is_free() {
        let (t, _) = fleet();
        for (from, to) in pairs() {
            assert_eq!(t.device_transfer_time(from, to, DataSize::ZERO), Seconds::ZERO);
        }
    }

    #[test]
    fn set_device_bandwidth_dents_one_directed_link() {
        let mut t = Testbed::continuum();
        let uniform = t.params.peer_bw;
        t.set_peer_link(DeviceId(0), DeviceId(2), Bandwidth::megabytes_per_sec(5.0));
        assert_eq!(t.peer_bandwidth(DeviceId(0), DeviceId(2)), Bandwidth::megabytes_per_sec(5.0));
        // The reverse direction and every other link are untouched.
        for a in 0..3 {
            for b in (0..3).filter(|&b| b != a && (a, b) != (0, 2)) {
                assert_eq!(t.peer_bandwidth(DeviceId(a), DeviceId(b)), uniform, "{a} -> {b}");
            }
        }
    }

    #[test]
    fn asymmetric_links_are_directional() {
        let mut t = Testbed::paper();
        t.set_peer_link(DeviceId(0), DeviceId(1), Bandwidth::megabytes_per_sec(100.0));
        t.set_peer_link(DeviceId(1), DeviceId(0), Bandwidth::megabytes_per_sec(10.0));
        let down = t.peer_bandwidth(DeviceId(0), DeviceId(1));
        let up = t.peer_bandwidth(DeviceId(1), DeviceId(0));
        assert!(down.as_bytes_per_sec() > up.as_bytes_per_sec());
    }
}
