//! End-to-end TCP serving: real sockets, concurrent clients, the
//! single-compute-thread coalescer, and error frames for bad requests.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use timedrl::{decode_model_export, encode_model_export, Precision, TimeDrl, TimeDrlConfig};
use timedrl_data::PatchConfig;
use timedrl_serve::{protocol, serve_tcp, CompiledModel, ServeConfig};
use timedrl_tensor::{NdArray, Prng};

fn compiled() -> CompiledModel {
    let mut cfg = TimeDrlConfig::forecasting(16);
    cfg.patch = PatchConfig::non_overlapping(4);
    cfg.d_model = 8;
    cfg.n_heads = 2;
    cfg.d_ff = 16;
    cfg.n_layers = 1;
    cfg.seed = 37;
    let model = TimeDrl::new(cfg);
    let payload = encode_model_export(&model);
    CompiledModel::from_export(decode_model_export(&payload[4..]).unwrap()).unwrap()
}

fn start_server() -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let model = compiled();
    std::thread::spawn(move || {
        let _ = serve_tcp(model, listener, ServeConfig { max_batch: 8, ..Default::default() });
    });
    addr
}

fn request(addr: std::net::SocketAddr, windows: &NdArray) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).unwrap();
    protocol::write_frame(&mut stream, &protocol::encode_request(windows)).unwrap();
    let mut frame = Vec::new();
    assert!(protocol::read_frame_into(&mut stream, &mut frame, 64 << 20).unwrap());
    frame
}

#[test]
fn concurrent_tcp_clients_get_bit_exact_embeddings() {
    let addr = start_server();
    let reference = compiled();

    let clients: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let windows = Prng::new(50 + i).randn(&[2, 16, 1]);
                let frame = request(addr, &windows);
                (windows, frame)
            })
        })
        .collect();
    for client in clients {
        let (windows, frame) = client.join().unwrap();
        let (resp, precision) = protocol::decode_response(&frame).expect("ok response");
        assert_eq!(precision, Precision::Exact, "the server writes only exact frames");
        let want = reference.embed(&windows).unwrap();
        assert_eq!(
            resp.z_i.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.z_i.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "z_i over TCP differs from direct embed"
        );
        assert_eq!(
            resp.z_t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.z_t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "z_t over TCP differs from direct embed"
        );
    }
}

#[test]
fn tcp_rejects_wrong_geometry_with_an_error_frame() {
    let addr = start_server();
    // Window length 8 against a model serving T=16.
    let frame = request(addr, &Prng::new(1).randn(&[1, 8, 1]));
    let err = protocol::decode_response(&frame).expect_err("must be an error frame");
    assert!(err.to_string().contains("16"), "error names the expected geometry: {err}");
}

#[test]
fn tcp_torn_frame_gets_error_frame_and_disconnect() {
    let addr = start_server();
    let mut stream = TcpStream::connect(addr).unwrap();
    // A header promising 100 payload bytes, then a dead connection.
    stream.write_all(&100u32.to_le_bytes()).unwrap();
    stream.write_all(&0u32.to_le_bytes()).unwrap();
    stream.write_all(&[1, 2, 3]).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut frame = Vec::new();
    assert!(protocol::read_frame_into(&mut stream, &mut frame, 64 << 20).unwrap());
    let err = protocol::decode_response(&frame).expect_err("must be an error frame");
    assert!(err.to_string().contains("truncated"), "{err}");
}
